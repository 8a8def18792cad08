"""Benchmark of the godelnet pipeline, from the root of a checkout:

    python3 perfbench/run.py --workload demo|chain|check|all --seed N \
        --seconds S --trace 0|1

One client drives one workload closed-loop in this process (see
workloads.py). Set-up (imports, config or grammar load, one untimed warm-up
op) is timed here and in four fresh processes; ``setup_s`` is the median.
Ops then run until ``--seconds`` have passed, and at least ``min_rounds``
rounds. A round is one op of every kind: one op on demo and chain, the
eight suites in ``suite_names()`` order on check.

Times are host-calibrated seconds. The speed of the shared host drifts by
up to 2x in phases of seconds to tens of seconds, for CPU time as much as
for wall time, so a median over one 30 s run still depends on which phases
the run caught. A fixed exact-arithmetic probe follows that drift. It is
timed around set-up, right before and right after each op, and every
SAMPLE_S during an op from a SIGALRM timer in the main thread (the time
spent in it is taken off the op's time). Each interval is reported as its
wall time times PROBE_REF_S over the median probe time then, i.e. in
seconds on a host where the probe takes PROBE_REF_S. The probe runs no
godelnet code, so a change to the program moves only the interval.
Wall-clock medians are printed and kept in the run record beside them.

``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json,
``--trace 1`` the ``per_layer`` ones: each round then runs every op once
untraced and once traced, in alternating order, so ``trace.overhead_share``
compares ops of the same inputs and the same host phase. Op times of one
workload are medians over its ops, per op kind and summed over kinds.

The last line of stdout is the result JSON. The run record (seed, host,
every op's outcome) and, when traced, the spans go to ``.perfbench_out/``.
A wrong exact result exits 3 without a result; ``--workload all`` runs
the three workloads one after another and exits nonzero if any did.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
import stats

#: Probe time on the reference host: about its time in a fast phase of a
#: 2-vCPU cloud VM with Python 3.11.
PROBE_REF_S = 1e-3
#: Period of the probe during an op; ops shorter than this are probed
#: only before and after.
SAMPLE_S = 0.25


def probe():
    """Wall time of a fixed exact-arithmetic computation (about 1 to 2 ms)."""
    t = time.perf_counter()
    acc, counts = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i, 3 * i + 1)
        counts[i % 37] = counts.get(i % 37, 0) + i
    return time.perf_counter() - t


def host_probe():
    """The host's current probe time; the lesser of two, as a hiccup only adds."""
    return min(probe(), probe())


SETUP_PROBE = host_probe()
# set-up is timed from here: the program's imports come after this line
SETUP_T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("demo", "chain", "check")
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 60
ORACLE_EXIT = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up only and print it (used for the set-up samples)")
    return ap.parse_args(argv)


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def import_program():
    """Import godelnet from this checkout's src/, and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import godelnet

    if not Path(godelnet.__file__).resolve().is_relative_to(src):
        raise ImportError("godelnet imported from %s, not from %s" % (godelnet.__file__, src))
    return godelnet


def blas_threads():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def setup_samples(args):
    """Set-up times of SETUP_CHILDREN fresh processes, one after another."""
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


class InOpProbe:
    """Probe samples taken by SIGALRM every SAMPLE_S while an op runs.

    In a traced op a sample's time also lands in the self time of the span
    it interrupts: about 0.6% of that span.
    """

    def __init__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t

    def start(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_op(wl, kind, r, op_id, tracer, root_span, sampler):
    """One timed op; tracing, if any, is installed only around it."""
    x = wl.prepare(kind, r)
    before = host_probe()
    if tracer is not None:
        tracer.begin_op(op_id, kind)
        tracer.install()
        span = tracer.open(root_span)
    sampler.start()
    t0 = time.perf_counter()
    try:
        result = wl.op(kind, x)
    finally:
        sampler.stop()
        dt = time.perf_counter() - t0 - sampler.spent
        if tracer is not None:
            tracer.close(span)
            tracer.uninstall()
    scale = PROBE_REF_S / statistics.median([before, host_probe()] + sampler.samples)
    if tracer is not None:
        tracer.scales[op_id] = scale
    outcome = wl.verify(x, result)
    return dict(op=op_id, round=r, kind=kind, traced=tracer is not None, s=dt * scale,
                wall_s=dt, probes=len(sampler.samples) + 2, **outcome)


def measure(wl, seconds, tracer):
    roots = dict(zip(wl.kinds, wl.root_spans))
    sampler = InOpProbe()
    ops = []
    start = time.perf_counter()
    r = 0
    while r < wl.min_rounds or time.perf_counter() - start < seconds:
        for kind in wl.kinds:
            modes = (None,) if tracer is None else ((None, tracer) if r % 2 == 0 else (tracer, None))
            for t in modes:
                ops.append(run_op(wl, kind, r, len(ops), t, roots[kind], sampler))
        r += 1
    return ops


def op_times(ops, traced, key="s"):
    return stats.by_kind((o["kind"], o[key]) for o in ops if o["traced"] == traced)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    declared = declared_metrics(args.trace)
    g = import_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, OUT)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        wl.setup()
    except workloads.OracleError as err:
        print("oracle mismatch in set-up: %s" % err, file=sys.stderr)
        return ORACLE_EXIT
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_wall = time.perf_counter() - SETUP_T0
    setup_scale = PROBE_REF_S / ((SETUP_PROBE + host_probe()) / 2)
    setup_main = {"setup_s": setup_wall * setup_scale, "wall_s": setup_wall}
    if tracer is not None:
        tracer.scales[spans.SETUP_OP] = setup_scale
    if args.setup_only:
        print(json.dumps(setup_main))
        return 0

    try:
        ops = measure(wl, args.seconds, tracer)
    except workloads.OracleError as err:
        print("oracle mismatch: %s" % err, file=sys.stderr)
        return ORACLE_EXIT

    untraced = op_times(ops, False)
    p50 = stats.sum_of_medians(untraced)
    wall_p50 = stats.sum_of_medians(op_times(ops, False, "wall_s"))
    failed = sum(1 for o in ops if not o["ok"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__, "blas_threads": blas_threads(),
        "godelnet": g.__version__, "attempted": len(ops), "failed": failed,
        "ok_share": (len(ops) - failed) / len(ops), "probe_ref_s": PROBE_REF_S,
        "wall_op_s_p50": wall_p50,
    }
    if args.trace:
        values = spans.layer_metrics(tracer, wl.root_spans)
        traced = op_times(ops, True)
        for kind in g.suite_names():
            values["checks.%s_s" % kind] = statistics.median(traced[kind]) if kind in traced else 0.0
        values["trace.overhead_share"] = stats.sum_of_medians(traced) / p50 - 1.0
        spans_path = OUT / ("%s-seed%d-spans.csv.gz" % (args.workload, args.seed))
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
        record["computed_metrics"] = list(spans.COMPUTED_METRICS)
    else:
        setups = [setup_main] + setup_samples(args)
        tail, tail_at = stats.sum_of_tails(untraced)
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "op_s_p50": p50,
            "op_s_tail": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["setup_samples"] = setups
        record["wall_setup_s"] = statistics.median(s["wall_s"] for s in setups)
        record["op_s_tail_at"] = {k: {"percentile": p, "count": n} for k, (p, n) in tail_at.items()}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared}
    record["metrics"] = metrics
    record["ops"] = ops
    record_path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("workload %s seed %d: %d ops, %d failed, ok_share %.4f share"
          % (args.workload, args.seed, len(ops), failed, record["ok_share"]))
    for name, m in metrics.items():
        print("  %-26s %14.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        if args.workload == "check":
            print("  %-26s %14.6g s  (sum of the eight suite medians)" % ("verdict_s", p50))
        for kind, at in record["op_s_tail_at"].items():
            print("  op_s_tail[%s] at p%.1f of %d ops" % (kind, at["percentile"], at["count"]))
        print("  wall clock: setup %.6g s, op p50 %.6g s"
              % (record["wall_setup_s"], wall_p50))
    print("  record: %s" % record_path.relative_to(ROOT))
    print(json.dumps({"correct": True, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Run every workload in its own process; nonzero if any run failed."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = status or proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    if status:
        return status
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
