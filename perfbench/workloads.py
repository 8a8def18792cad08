"""The three benchmark workloads and their oracles.

Each workload is driven closed-loop by one client in one process: the next
op starts when the previous one and its oracle check have finished. Ops call
only public functions of ``godelnet``, through the package namespace. The
oracles do not come from the code under test: the demo trace is the one
printed in the README, the demo artifacts are compared with digests frozen
from the seed's bytes, the chain orbit is recomputed here with plain base-m
sums, and the network is compared with that orbit here. Oracle checks run
outside the timed region.

Each workload makes an op's input with ``prepare(kind, i)`` (untimed),
runs it with ``op(kind, x)`` (timed) and checks it with ``verify(x, result)``
(untimed). A wrong exact result raises OracleError, which stops the run. A
float network that leaves the exact orbit is a failed op, not an error.
"""

import hashlib
import random
import shutil
from fractions import Fraction

import godelnet as g


class OracleError(Exception):
    """An exact result differs from its oracle."""


# ---------------------------------------------------------------------------
# demo: the shipped experiment, as ``godelnet run`` does it

#: The six-row trace of "NP V NP" printed in the README, as
#: (stack in tape order, input, operation).
README_TRACE = (
    ("S", "NP V NP", "predict(S -> NP VP)"),
    ("VP NP", "NP V NP", "attach"),
    ("VP", "V NP", "predict(VP -> V NP)"),
    ("NP V", "V NP", "attach"),
    ("NP", "NP", "attach"),
    ("", "", "accept"),
)

#: sha256 of each artifact the seed writes for configs/experiment.ini. Only
#: these names are compared, so new artifact files do not break the check.
DEMO_DIGESTS = {
    "amari.svg": "0170a77c673dd7519b9b9dfbf1289928dc2356485d363e2c033053bd0cbf0d15",
    "dissimilarity.svg": "937a5f10c21b40433c9302dd383bca79183a15e74f7da1a8f39d24964cb502d2",
    "harmony.svg": "392be8afa26e8b8211bd94e9522c1cbc9d57ff8fd6aa026c2a12a574ec571af8",
    "map_delta.csv": "fe0f7085b906362ddeeb64a8f087477c22f56c6ae80794fd6dcf70c17e06b7e0",
    "map_gamma.csv": "6973a28ffc63eff29c794bf8deac33a18cb51c17cbb1b695f6d7f23e660e2d94",
    "network_delta.csv": "c23a3975ff63d80ee64b85ca403e23329a1762f864e9f8a26af3470e49109cca",
    "network_gamma.csv": "f20d9497152d4272a7e2b8990b50ca08a4f2e583fb0a6d539fa0cafd511626f0",
    "observables.csv": "954bc74f667e78c7350ce67c43ccddf15c9f7fd9f87481d98d6f9e2b1423e214",
    "step.svg": "0c438397b04deec966ddce492d6b0c460bc1b842c5a03bb443dc742048d272e3",
    "summary.txt": "65945b2e3fb9fa4af61af16751a13970089188857778a333883d098462c412f2",
    "trace_delta.csv": "d2df5e585efa43ee3b969e20b1fa9bf8bbab160974c86a17cd06c72db5c80171",
    "trace_gamma.csv": "d2df5e585efa43ee3b969e20b1fa9bf8bbab160974c86a17cd06c72db5c80171",
    "trajectory_delta.csv": "025fe7b65b9d9e3e11bd46d8fe86306f9bcbe1002e7b4984d619544812a0067d",
    "trajectory_gamma.csv": "478c18f949671b153e837496bc9984d8c3fe1e82c950fd8fde6c74611786c144",
    "verdicts.csv": "16ddad1092d7d42cd041c44e2e9e0975d22223545c0a6d59b5d2994a76fc1873",
}


def check_demo_trace(trace, where):
    rows = tuple((" ".join(reversed(s.state.stack)), " ".join(s.state.input), s.operation)
                 for s in trace.steps)
    if rows != README_TRACE:
        raise OracleError("%s: trace %r differs from the README trace" % (where, rows))


def check_digests(out_dir, digests=DEMO_DIGESTS):
    for name, want in sorted(digests.items()):
        path = out_dir / name
        if not path.is_file():
            raise OracleError("artifact %s was not written" % name)
        got = hashlib.sha256(path.read_bytes()).hexdigest()
        if got != want:
            raise OracleError("artifact %s has sha256 %s, seed wrote %s" % (name, got, want))


class Demo:
    kinds = ("op",)
    root_spans = ("bench.op",)
    min_rounds = 11  # a tail percentile needs 11 ops

    def __init__(self, root, seed, out_dir):
        self.config_path = root / "configs" / "experiment.ini"
        self.out_dir = out_dir

    def setup(self):
        out = self.prepare("op", "warmup")
        self.verify(out, self.op("op", out))

    def prepare(self, kind, i):
        return self.out_dir / ("demo-%s" % i)  # fresh: verify removes it

    def op(self, kind, out):
        try:
            report = g.run_experiment(g.load_config(self.config_path))
        except g.DivergenceError as err:
            return None, str(err)
        g.write_report(report, out)
        return report, None

    def verify(self, out, result):
        report, diverged = result
        try:
            if report is None:
                return {"ok": False, "diverged": diverged}
            for run in report.runs:
                check_demo_trace(run.trace, "encoding %s" % run.name)
            steps = [v for v in report.verdicts if v.observable == "step"]
            if not steps or not all(v.invariant for v in steps):
                raise OracleError("the step observable is not encoding-invariant")
            check_digests(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return {"ok": True}


# ---------------------------------------------------------------------------
# chain: grammar G_k at k = 10, one random blank-pinned encoding per op

CHAIN_K = 10
SOUNDNESS = 1e-9


def chain_grammar(k):
    """G_k: S -> t0 A1, A_i -> t_i A_{i+1}, ..., A_{k-1} -> t_{k-1} t_k."""
    rules = {"S": ("t0", "A1")}
    for i in range(1, k - 1):
        rules["A%d" % i] = ("t%d" % i, "A%d" % (i + 1))
    rules["A%d" % (k - 1)] = ("t%d" % (k - 1), "t%d" % k)
    return rules


def chain_trace(k):
    """Top-down parse of t0 ... tk under G_k, as (stack top-first, input, operation).

    Worked out here from the grammar, independently of the machine: predict
    replaces the top nonterminal by its right-hand side, attach cancels
    equal stack top and input head, the empty tape accepts.
    """
    rules = chain_grammar(k)
    stack, inp = ("S",), tuple("t%d" % i for i in range(k + 1))
    rows = []
    while stack:
        top = stack[0]
        if top in rules:
            rows.append((stack, inp, "predict(%s -> %s)" % (top, " ".join(rules[top]))))
            stack = rules[top] + stack[1:]
        else:
            rows.append((stack, inp, "attach"))
            stack, inp = stack[1:], inp[1:]
    rows.append(((), (), "accept"))
    return tuple(rows)


def base_m(word, digits, m):
    """sum_k digits[word_k] * m**-k, with integer numerators."""
    num = 0
    for sym in word:
        num = num * m + digits[sym]
    return Fraction(num, m ** len(word))


def random_digits(alphabet, rng):
    """Blank-pinned digit table: blank -> 0, the rest a shuffle of 1..m-1."""
    others = [s for s in alphabet.symbols if s != alphabet.blank]
    digits = list(range(1, len(others) + 1))
    rng.shuffle(digits)
    table = {alphabet.blank: 0}
    table.update(zip(others, digits))
    return table


def chain_orbit(rows, in_digits, st_digits):
    """Exact phase points of the trace rows: (input side, stack side)."""
    m_in, m_st = len(in_digits), len(st_digits)
    return [(base_m(inp, in_digits, m_in), base_m(stack, st_digits, m_st))
            for stack, inp, _ in rows]


def network_divergence(macro_states, mcl, orbit):
    """Largest MCL deviation from the exact orbit and the first macro step above SOUNDNESS."""
    worst, first = 0.0, -1
    for t, (state, (y1, y2)) in enumerate(zip(macro_states, orbit)):
        err = max(abs(float(state.x[mcl[0]]) - float(y1)), abs(float(state.x[mcl[1]]) - float(y2)))
        worst = max(worst, err)
        if err > SOUNDNESS and first < 0:
            first = t
    return worst, first


def check_chain_exact(trace, orbit, rows, want_orbit):
    got = tuple((tuple(s.state.stack), tuple(s.state.input), s.operation) for s in trace.steps)
    if trace.verdict != g.ACCEPT or got != rows:
        raise OracleError("chain trace (verdict %s after %d rows) differs from the parse of G_%d"
                          % (trace.verdict, len(got), CHAIN_K))
    if [(p.y1, p.y2) for p in orbit] != want_orbit:
        raise OracleError("exact orbit differs from the base-m sums of the trace")
    if want_orbit[-1] != (0, 0):
        raise OracleError("exact orbit does not end at the origin")


class Chain:
    kinds = ("op",)
    root_spans = ("bench.op",)
    min_rounds = 11
    steps = 2 * CHAIN_K + 1  # accept at t = 2k+1

    def __init__(self, root, seed, out_dir):
        self.seed = seed

    def setup(self):
        text = "\n".join("%s -> %s" % (lhs, " ".join(rhs))
                         for lhs, rhs in chain_grammar(CHAIN_K).items())
        self.machine = g.compile_cfg_topdown(g.parse_grammar(text))
        self.rows = chain_trace(CHAIN_K)
        self.state0 = g.initial_state(self.machine, self.rows[0][1], "S")
        enc = self.prepare("op", "warmup")
        self.verify(enc, self.op("op", enc))

    def prepare(self, kind, i):
        """A seeded random blank-pinned encoding: (input digits, stack digits, pair)."""
        rng = random.Random("chain:%d:%s" % (self.seed, i))
        in_digits = random_digits(self.machine.input_alphabet, rng)
        st_digits = random_digits(self.machine.stack_alphabet, rng)
        pair = g.EncodingPair(input=g.Ordering(self.machine.input_alphabet, in_digits),
                              stack=g.Ordering(self.machine.stack_alphabet, st_digits))
        return in_digits, st_digits, pair

    def op(self, kind, enc):
        pair = enc[2]
        trace = g.vs_run(self.machine, self.state0)
        nda = g.from_versatile_shift(self.machine, pair)
        point0 = g.encode_tape(self.state0, pair)
        orbit = g.nda_run(nda, point0, self.steps)
        spec = g.synthesize(nda)
        net = g.na_run(spec, g.embed(spec, point0), self.steps,
                       reference=nda, tol=SOUNDNESS, point=point0)
        return trace, orbit, spec, net

    def verify(self, enc, result):
        in_digits, st_digits, _ = enc
        trace, orbit, spec, net = result
        want = chain_orbit(self.rows, in_digits, st_digits)
        check_chain_exact(trace, orbit, self.rows, want)
        worst, first = network_divergence(net.macro_states, spec.mcl, want)
        return {"ok": first < 0, "max_divergence": worst, "divergence_step": first,
                "input_digits": [in_digits[s] for s in self.machine.input_alphabet.symbols],
                "stack_digits": [st_digits[s] for s in self.machine.stack_alphabet.symbols]}


# ---------------------------------------------------------------------------
# check: the eight self-verification suites, one suite call per op

class Check:
    min_rounds = 2

    def __init__(self, root, seed, out_dir):
        self.seed = seed
        self.kinds = tuple(g.suite_names())
        self.root_spans = tuple("checks.%s" % k for k in self.kinds)

    def setup(self):
        seed = self.prepare(self.kinds[0], "warmup")
        self.verify(seed, self.op(self.kinds[0], seed))

    def prepare(self, kind, i):
        """The suite seed of round ``i``: one per pass, derived from the workload seed."""
        return random.Random("check:%d:%s" % (self.seed, i)).randrange(2**16)

    def op(self, kind, seed):
        return g.run_checks([kind], seed=seed)[0]

    def verify(self, seed, result):
        if not result.ok:
            raise OracleError("suite %s failed: %s" % (result.name, result.detail))
        return {"ok": True}


WORKLOADS = {"demo": Demo, "chain": Chain, "check": Check}
