"""End-to-end experiment driver.

Runs one configured experiment: compile the grammar, build the dynamical
map and the network once per encoding, run all three layers side by side,
record macroscopic observables, and compare them across encodings.  All
artifacts are plain CSV/SVG/text files with fully deterministic bytes.
"""

import csv
import io
from dataclasses import dataclass
from pathlib import Path

from .config import ExperimentConfig
from .errors import ConfigError, DivergenceError, InternalConsistencyError
from .nda import (
    EncodingPair,
    encode_tape,
    from_versatile_shift,
    nda_csv,
    nda_run,
    nda_step,
)
from .network import embed, na_run, network_csv, synthesize, trajectory_csv
from .observables import (
    amari,
    build_step_observable,
    dissimilarity,
    harmony,
    step_observable,
)
from .shift import compile_cfg_topdown, initial_state, load_grammar, trace_csv, vs_run, vs_step
from .svg import line_chart
from .symbols import Ordering


@dataclass(frozen=True)
class Verdict:
    """Cross-encoding comparison of one observable series."""

    observable: str
    enc_a: str
    enc_b: str
    max_abs_delta: float
    invariant: bool
    expected_invariant: bool


@dataclass(frozen=True)
class EncodingRun:
    """Everything computed for a single encoding."""

    name: str
    pair: EncodingPair
    trace: object
    nda: object
    network: object
    na: object
    # observable -> ((step, value), ...); steps are macro times starting at 0
    series: dict


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    machine: object
    start_symbol: str
    runs: tuple
    verdicts: tuple
    unit_count: int

    @property
    def invariance_ok(self):
        return all(v.invariant for v in self.verdicts
                   if v.expected_invariant)


def _ordering(alphabet, table, where):
    symbols = dict(table)
    missing = [s for s in alphabet.symbols if s not in symbols]
    extra = [s for s in symbols if s not in alphabet.symbols]
    if missing or extra:
        parts = []
        if missing:
            parts.append("missing %s" % ", ".join(sorted(missing)))
        if extra:
            parts.append("unknown %s" % ", ".join(sorted(extra)))
        raise ConfigError("%s: %s" % (where, "; ".join(parts)))
    try:
        return Ordering(alphabet, symbols)
    except Exception as err:
        raise ConfigError("%s: %s" % (where, err)) from None


def _check_trace_commutes(machine, nda, pair, trace, where):
    """Spot-check map/machine agreement along the symbolic trace."""
    for step in trace.steps:
        nxt, _ = vs_step(machine, step.state)
        image = nda_step(nda, encode_tape(step.state, pair))
        want = encode_tape(nxt, pair)
        if image != want:
            raise DivergenceError(
                "map image disagrees with machine at t=%d under %s"
                % (step.time, where),
                counterexample=(step.state, image, want))


def run_experiment(config):
    """Execute the experiment and return an in-memory report.

    Raises ConfigError for bad inputs and DivergenceError when any two
    layers that must agree do not.
    """
    grammar = load_grammar(config.grammar_path)
    machine = compile_cfg_topdown(grammar)
    l, r = config.window

    pairs = []
    for tables in config.encodings:
        pair = EncodingPair(
            input=_ordering(machine.input_alphabet, tables.input_table,
                            "encoding %s (input side)" % tables.name),
            stack=_ordering(machine.stack_alphabet, tables.stack_table,
                            "encoding %s (stack side)" % tables.name),
        )
        pairs.append((tables.name, pair))

    m_in = pairs[0][1].m_in
    m_st = pairs[0][1].m_st
    obs_spec = build_step_observable(l, r, m_in, m_st, seed=config.seed)

    # the symbolic run does not depend on the encoding
    state0 = initial_state(machine, config.sentence, grammar.start)
    trace = vs_run(machine, state0, max_steps=config.macro_steps)
    runs = []
    unit_count = 0
    for name, pair in pairs:
        nda = from_versatile_shift(machine, pair)
        _check_trace_commutes(machine, nda, pair, trace, "encoding %s" % name)
        point0 = encode_tape(state0, pair)
        exact = nda_run(nda, point0, config.macro_steps)
        network = synthesize(nda)
        unit_count = network.n
        na = na_run(network, embed(network, point0), config.macro_steps,
                    reference=nda, tol=config.soundness, point=point0)
        if na.diverged:
            raise DivergenceError(
                "network run for encoding %s left the exact orbit at macro "
                "step %s (max deviation %.3g)"
                % (name, na.divergence_step, na.max_divergence))

        series = {}
        if "step" in config.observables:
            series["step"] = tuple(
                (t, step_observable(obs_spec, p)) for t, p in enumerate(exact))
        if "amari" in config.observables:
            series["amari"] = tuple(
                (t, amari(state)) for t, state in enumerate(na.macro_states))
        if "harmony" in config.observables:
            series["harmony"] = tuple(
                (t, harmony(network.weights, state))
                for t, state in enumerate(na.macro_states))
        if "dissimilarity" in config.observables:
            series["dissimilarity"] = tuple(
                (t, dissimilarity(na.macro_states[t - 1], na.macro_states[t]))
                for t in range(1, len(na.macro_states)))
        runs.append(EncodingRun(name=name, pair=pair, trace=trace, nda=nda,
                                network=network, na=na, series=series))

    verdicts = []
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            a, b = runs[i], runs[j]
            for obs in config.observables:
                sa, sb = a.series[obs], b.series[obs]
                if len(sa) != len(sb):
                    raise InternalConsistencyError(
                        "series length mismatch for %s" % obs)
                delta = max((abs(float(va) - float(vb))
                             for (_, va), (_, vb) in zip(sa, sb)),
                            default=0.0)
                verdicts.append(Verdict(
                    observable=obs, enc_a=a.name, enc_b=b.name,
                    max_abs_delta=delta,
                    invariant=delta <= config.step_invariance,
                    expected_invariant=obs == "step"))

    return ExperimentReport(config=config, machine=machine,
                            start_symbol=grammar.start, runs=tuple(runs),
                            verdicts=tuple(verdicts), unit_count=unit_count)


def observables_csv(report):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["run", "encoding", "step", "observable", "value"])
    for run in report.runs:
        for obs in report.config.observables:
            for t, value in run.series.get(obs, ()):
                writer.writerow([report.config.run_id, run.name, t, obs,
                                 repr(float(value))])
    return out.getvalue()


def verdicts_csv(report):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["observable", "encoding_a", "encoding_b",
                     "max_abs_delta", "invariant", "expected_invariant"])
    for v in report.verdicts:
        writer.writerow([v.observable, v.enc_a, v.enc_b,
                         repr(v.max_abs_delta),
                         "yes" if v.invariant else "no",
                         "yes" if v.expected_invariant else "no"])
    return out.getvalue()


def report_text(report):
    cfg = report.config
    lines = []
    lines.append("run: %s" % cfg.run_id)
    lines.append("sentence: %s" % " ".join(cfg.sentence))
    lines.append("window: l=%d r=%d" % cfg.window)
    lines.append("network units: %d" % report.unit_count)
    for run in report.runs:
        final = run.trace.steps[-1]
        lines.append("encoding %s: verdict=%s after %d steps, "
                     "max network deviation %.3g"
                     % (run.name, run.trace.verdict, final.time,
                        run.na.max_divergence))
    for v in report.verdicts:
        status = "invariant" if v.invariant else "NOT invariant"
        note = "expected" if v.expected_invariant == v.invariant else "UNEXPECTED"
        lines.append("%s (%s vs %s): %s, max |delta| = %.6g [%s]"
                     % (v.observable, v.enc_a, v.enc_b, status,
                        v.max_abs_delta, note))
    lines.append("overall: %s" % ("ok" if report.invariance_ok else
                                  "recoding changed a class-based observable"))
    return "\n".join(lines) + "\n"


def write_report(report, out_dir):
    """Write every artifact under out_dir; returns the list of paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name, text):
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        written.append(path)

    for run in report.runs:
        emit("trace_%s.csv" % run.name, trace_csv(run.trace))
        emit("map_%s.csv" % run.name, nda_csv(run.nda))
        emit("network_%s.csv" % run.name, network_csv(run.network))
        emit("trajectory_%s.csv" % run.name, trajectory_csv(run.na))
    emit("observables.csv", observables_csv(report))
    emit("verdicts.csv", verdicts_csv(report))
    for obs in report.config.observables:
        series = [(run.name, [(float(t), float(v))
                              for t, v in run.series.get(obs, ())])
                  for run in report.runs]
        emit("%s.svg" % obs, line_chart(series, title=obs,
                                        xlabel="macro step"))
    emit("summary.txt", report_text(report))
    return written
