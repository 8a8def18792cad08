"""Outside-in layer tracing for the traced benchmark run.

A Tracer replaces the public functions of each godelnet layer, under the
names their callers bind them (``godelnet.harness.synthesize``,
``godelnet.observables.square_partition``, ...), with wrappers that record a
span per call: name, start, end, parent span and the op it belongs to.
Counts are taken at the same call sites from the call's result. Spans stay
in memory in flat arrays and are written out when the run ends. Nothing
under ``src/`` changes; the wrappers are installed only around traced ops.

A layer's self time is its span time minus the time its child spans cover.
"""

import gzip
import importlib
import os
import statistics
import time
from array import array
from collections import Counter, defaultdict

import stats

SETUP_OP = -1


def _count_steps(tracer, result, args, kwargs):
    tracer.count("shift.steps", len(result.steps) - 1)


def _count_cells(tracer, result, args, kwargs):
    tracer.count("nda.cells", len(result.cells))


def _network_arrays(tracer, result, args, kwargs):
    # computed from the spec's arrays, not measured
    weights = result.weights
    tracer.sample("network.units", result.n)
    tracer.sample("network.weights_mb", weights.nbytes / 2**20)
    tracer.sample("network.nonzero_share", int((weights != 0).sum()) / weights.size)


def _count_network_run(tracer, result, args, kwargs):
    tracer.count("network.micro_steps", len(result.states) - 1)
    reference = args[3] if len(args) > 3 else kwargs.get("reference")
    if reference is not None:
        tracer.sample("network.max_divergence", result.max_divergence)
        tracer.sample("network.diverged", 1.0 if result.diverged else 0.0)


def _count_partition(tracer, result, args, kwargs):
    tracer.count("patterns.cells", len(result.assignment))
    tracer.count("patterns.classes", result.class_count)


def _count_bytes(tracer, result, args, kwargs):
    tracer.count("harness.bytes_written", sum(os.path.getsize(p) for p in result))


#: (module, attribute, span name, count hook): every public layer function
#: under each name a caller binds it by. The benchmark itself calls through
#: the ``godelnet`` package namespace.
TARGETS = (
    ("godelnet", "run_experiment", "harness.run", None),
    ("godelnet", "write_report", "harness.write", _count_bytes),
    ("godelnet", "compile_cfg_topdown", "shift.compile", None),
    ("godelnet.harness", "compile_cfg_topdown", "shift.compile", None),
    ("godelnet.checks", "compile_cfg_topdown", "shift.compile", None),
    ("godelnet", "vs_run", "shift.vs_run", _count_steps),
    ("godelnet.harness", "vs_run", "shift.vs_run", _count_steps),
    ("godelnet", "from_versatile_shift", "nda.table", _count_cells),
    ("godelnet.harness", "from_versatile_shift", "nda.table", _count_cells),
    ("godelnet.checks", "from_versatile_shift", "nda.table", _count_cells),
    ("godelnet", "encode_tape", "nda.run", None),
    ("godelnet.harness", "encode_tape", "nda.run", None),
    ("godelnet.checks", "encode_tape", "nda.run", None),
    ("godelnet", "nda_run", "nda.run", None),
    ("godelnet.harness", "nda_run", "nda.run", None),
    ("godelnet.harness", "nda_step", "nda.run", None),
    ("godelnet.network", "nda_step", "nda.run", None),
    ("godelnet.nda", "godel_encode", "symbols.encode", None),
    ("godelnet", "synthesize", "network.synthesize", _network_arrays),
    ("godelnet.harness", "synthesize", "network.synthesize", _network_arrays),
    ("godelnet.checks", "synthesize", "network.synthesize", _network_arrays),
    ("godelnet", "na_run", "network.run", _count_network_run),
    ("godelnet.harness", "na_run", "network.run", _count_network_run),
    ("godelnet.checks", "na_run", "network.run", _count_network_run),
    ("godelnet.observables", "square_partition", "patterns.partition", _count_partition),
    ("godelnet.checks", "square_partition", "patterns.partition", _count_partition),
    ("godelnet.checks", "interval_partition", "patterns.partition", _count_partition),
    ("godelnet.harness", "build_step_observable", "observables.build", None),
    ("godelnet.checks", "build_step_observable", "observables.build", None),
    ("godelnet.harness", "step_observable", "observables.eval", None),
    ("godelnet.checks", "step_observable", "observables.eval", None),
    ("godelnet.harness", "amari", "observables.eval", None),
    ("godelnet.harness", "harmony", "observables.eval", None),
    ("godelnet.harness", "dissimilarity", "observables.eval", None),
)

#: Per-layer time metric -> span name whose self time it sums per op.
SELF_TIME_METRICS = {
    "symbols.encode_s": "symbols.encode",
    "nda.table_s": "nda.table",
    "nda.run_s": "nda.run",
    "network.synthesize_s": "network.synthesize",
    "network.run_s": "network.run",
    "patterns.partition_s": "patterns.partition",
    "observables.build_s": "observables.build",
    "observables.eval_s": "observables.eval",
    "shift.vs_run_s": "shift.vs_run",
    "harness.run_self_s": "harness.run",
    "harness.write_s": "harness.write",
}

#: Per-op counts taken from call results, summed over the op's calls.
COUNT_METRICS = (
    "nda.cells",
    "network.micro_steps",
    "patterns.cells",
    "patterns.classes",
    "shift.steps",
    "harness.bytes_written",
)

#: Per-op call counts -> span name.
CALL_COUNT_METRICS = {
    "symbols.encode_calls": "symbols.encode",
    "observables.calls": "observables.eval",
}

#: Values computed from the synthesized spec's arrays rather than measured.
COMPUTED_METRICS = ("network.units", "network.weights_mb", "network.nonzero_share")

#: Per-call values, median over all traced calls (set-up included).
CALL_METRICS = COMPUTED_METRICS + ("network.max_divergence",)


class Tracer:
    """In-memory span and count recorder with installable layer wrappers."""

    def __init__(self, targets=TARGETS):
        self.names = []
        self._name_ids = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.ops = array("l")
        self._stack = []
        self.op = SETUP_OP
        self.op_kinds = {}
        self.scales = {}  # op -> host calibration factor for its times
        self.counts = defaultdict(Counter)
        self.samples = defaultdict(list)
        self._patches = []
        for module_name, attr, span, hook in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original, self.wrap(original, span, hook)))

    def begin_op(self, op, kind):
        self.op = op
        self.op_kinds[op] = kind

    def open(self, name):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key, n):
        self.counts[self.op][key] += n

    def sample(self, key, value):
        self.samples[key].append(value)

    def wrap(self, fn, name, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def write(self, path):
        """Write every span as gzipped CSV: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write("span,name,start,end,parent,op\n")
            for i in range(len(self.starts)):
                fh.write("%d,%s,%.9f,%.9f,%d,%d\n" % (
                    i, self.names[self.name_ids[i]], self.starts[i], self.ends[i],
                    self.parents[i], self.ops[i]))


def self_times(starts, ends, parents):
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, so overlapping or
    overhanging children are never subtracted twice.
    """
    children = [[] for _ in range(len(starts))]
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, kids in enumerate(children):
        lo, hi = starts[i], ends[i]
        covered, reach = 0.0, lo
        for c in sorted(kids, key=starts.__getitem__):
            a, b = max(starts[c], reach), min(ends[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


def layer_metrics(tracer, root_span_names):
    """Per-layer values from the recorded spans and counts.

    Per-op values (self times and counts) are the median over traced ops of
    one kind, summed over kinds. Times are scaled by their op's host
    calibration factor. ``root_span_names`` are the spans that delimit one
    op; the traced layers' self times cover the share of the op time that
    is not the root's own self time.
    """
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    per_op = defaultdict(Counter)
    roots = set(root_span_names)
    compiles = []
    for i, self_s in enumerate(selfs):
        op = tracer.ops[i]
        name = tracer.names[tracer.name_ids[i]]
        scaled = self_s * tracer.scales[op]
        if name == "shift.compile":
            compiles.append(scaled)
        if op == SETUP_OP:
            continue
        per_op[op][name] += scaled
        per_op[op]["calls:" + name] += 1
        if name in roots:
            per_op[op]["op"] += tracer.ends[i] - tracer.starts[i]
            per_op[op]["root_self"] += self_s
    for op, counts in tracer.counts.items():
        if op != SETUP_OP:
            per_op[op].update(counts)

    def agg(key):
        groups = stats.by_kind((tracer.op_kinds[op], per_op[op][key])
                               for op in sorted(tracer.op_kinds))
        return stats.sum_of_medians(groups) if groups else 0.0

    out = {metric: agg(span) for metric, span in SELF_TIME_METRICS.items()}
    for metric in COUNT_METRICS:
        out[metric] = agg(metric)
    for metric, span in CALL_COUNT_METRICS.items():
        out[metric] = agg("calls:" + span)
    for metric in CALL_METRICS:
        values = tracer.samples.get(metric)
        out[metric] = statistics.median(values) if values else 0.0
    diverged = tracer.samples.get("network.diverged")
    out["network.diverged_share"] = statistics.fmean(diverged) if diverged else 0.0
    steps = out["network.micro_steps"]
    out["network.micro_step_ms"] = 1e3 * out["network.run_s"] / steps if steps else 0.0
    out["shift.compile_s"] = statistics.median(compiles) if compiles else 0.0
    op_s = agg("op")
    out["trace.coverage_share"] = 1.0 - agg("root_self") / op_s if op_s else 0.0
    return out
