"""Tests of the benchmark's own code: oracles, tail percentile, self time.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import hashlib
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import godelnet as g  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads as wl  # noqa: E402

# ---------------------------------------------------------------------------
# statistics


def test_tail_picks_the_rank_with_ten_samples_beyond():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.tail(values) == (90, 90.0, 100)
    value, pct, count = stats.tail([float(v) for v in range(11)])
    assert (value, count) == (0.0, 11)
    assert pct == pytest.approx(100 / 11)
    assert sum(1 for v in range(11) if v > value) == 10


def test_tail_falls_back_to_the_median_without_eleven_samples():
    assert stats.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)
    assert stats.tail(list(range(10))) == (4.5, 50.0, 10)
    with pytest.raises(ValueError):
        stats.tail([])


def test_per_kind_statistics_sum_over_kinds():
    groups = stats.by_kind([("a", 1.0), ("b", 10.0), ("a", 3.0), ("b", 30.0), ("a", 2.0)])
    assert list(groups) == ["a", "b"]
    assert stats.sum_of_medians(groups) == 2.0 + 20.0
    total, where = stats.sum_of_tails(groups)
    assert total == 2.0 + 20.0
    assert where == {"a": [50.0, 3], "b": [50.0, 2]}


# ---------------------------------------------------------------------------
# spans


def test_self_time_subtracts_the_union_of_direct_children():
    #        0: [0, 10]
    #   1: [1, 3]   2: [2, 4]   3: [8, 12] (overhangs)
    #   4: [1.5, 2.5] is a child of 1, not of 0
    starts = [0.0, 1.0, 2.0, 8.0, 1.5]
    ends = [10.0, 3.0, 4.0, 12.0, 2.5]
    parents = [-1, 0, 0, 0, 1]
    got = spans.self_times(starts, ends, parents)
    assert got == pytest.approx([10 - 3 - 2, 2 - 1, 2, 4, 1])


def test_self_time_of_sequential_children():
    got = spans.self_times([0.0, 1.0, 3.0], [5.0, 2.0, 4.5], [-1, 0, 0])
    assert got == pytest.approx([2.5, 1.0, 1.5])


def test_tracer_records_nesting_counts_and_restores_functions():
    module = SimpleNamespace(inner=lambda x: x + 1)
    module.outer = lambda x: module.inner(x) * 2
    sys.modules["perfbench_fake_layer"] = module
    try:
        hook = lambda tracer, result, args, kwargs: tracer.count("fake.calls", 1)  # noqa: E731
        tracer = spans.Tracer(targets=(("perfbench_fake_layer", "outer", "fake.outer", None),
                                       ("perfbench_fake_layer", "inner", "fake.inner", hook)))
        original = module.inner
        tracer.begin_op(0, "op")
        tracer.install()
        assert module.outer(1) == 4
        tracer.uninstall()
        assert module.inner is original
        names = [tracer.names[i] for i in tracer.name_ids]
        assert names == ["fake.outer", "fake.inner"]
        assert list(tracer.parents) == [-1, 0]
        assert list(tracer.ops) == [0, 0]
        assert tracer.counts[0]["fake.calls"] == 1
        assert tracer.starts[0] <= tracer.starts[1] <= tracer.ends[1] <= tracer.ends[0]
    finally:
        del sys.modules["perfbench_fake_layer"]


def test_layer_metrics_scale_self_times_and_sum_medians_over_kinds():
    tracer = spans.Tracer(targets=())
    # op 0 (kind a): root [0, 10] with an encode child [2, 8]; op 1 (kind b): root [10, 14]
    for op, kind, scale, intervals in ((0, "a", 2.0, ((0.0, 10.0), (2.0, 8.0))),
                                       (1, "b", 1.0, ((10.0, 14.0),))):
        tracer.begin_op(op, kind)
        tracer.scales[op] = scale
        for k, (lo, hi) in enumerate(intervals):
            tracer.open("bench.op" if k == 0 else "symbols.encode")
            tracer.starts[-1], tracer.ends[-1] = lo, hi
        for _ in intervals:
            tracer._stack.pop()
    out = spans.layer_metrics(tracer, ("bench.op",))
    assert out["symbols.encode_s"] == 12.0  # 6 s at scale 2, plus 0 for kind b
    assert out["symbols.encode_calls"] == 1
    assert out["trace.coverage_share"] == pytest.approx(1 - (4 + 4) / (10 + 4))


def test_every_target_names_a_function_of_the_program():
    tracer = spans.Tracer()
    for module, attr, original, wrapped in tracer._patches:
        assert callable(original) and getattr(module, attr) is original
        assert wrapped.__wrapped__ is original


# ---------------------------------------------------------------------------
# demo oracles


def test_demo_trace_oracle_rejects_a_corrupted_trace():
    machine = g.compile_cfg_topdown(g.parse_grammar("S -> NP VP\nVP -> V NP\n"))
    trace = g.vs_run(machine, g.initial_state(machine, ("NP", "V", "NP"), "S"))
    wl.check_demo_trace(trace, "plain")
    bad = replace(trace, steps=trace.steps[:2] + (replace(trace.steps[2], operation="attach"),)
                  + trace.steps[3:])
    with pytest.raises(wl.OracleError):
        wl.check_demo_trace(bad, "corrupted")
    with pytest.raises(wl.OracleError):
        wl.check_demo_trace(replace(trace, steps=trace.steps[:-1]), "truncated")


def test_digest_oracle_rejects_a_changed_or_missing_artifact(tmp_path):
    (tmp_path / "a.csv").write_bytes(b"x,y\n1,2\n")
    (tmp_path / "new.csv").write_bytes(b"not in the frozen set\n")
    digests = {"a.csv": hashlib.sha256(b"x,y\n1,2\n").hexdigest()}
    wl.check_digests(tmp_path, digests)
    (tmp_path / "a.csv").write_bytes(b"x,y\n1,3\n")
    with pytest.raises(wl.OracleError):
        wl.check_digests(tmp_path, digests)
    with pytest.raises(wl.OracleError):
        wl.check_digests(tmp_path, {"missing.csv": digests["a.csv"]})


def test_frozen_digests_cover_every_artifact_of_the_shipped_config():
    config = g.load_config(HERE.parent / "configs" / "experiment.ini")
    names = {"trace_%s.csv", "map_%s.csv", "network_%s.csv", "trajectory_%s.csv"}
    want = {n % e.name for n in names for e in config.encodings}
    want |= {"observables.csv", "verdicts.csv", "summary.txt"}
    want |= {"%s.svg" % o for o in config.observables}
    assert set(wl.DEMO_DIGESTS) == want


# ---------------------------------------------------------------------------
# chain oracles


@pytest.fixture(scope="module")
def small_chain():
    k = 3
    text = "\n".join("%s -> %s" % (lhs, " ".join(rhs)) for lhs, rhs in wl.chain_grammar(k).items())
    machine = g.compile_cfg_topdown(g.parse_grammar(text))
    rows = wl.chain_trace(k)
    rng = random.Random(5)
    in_digits = wl.random_digits(machine.input_alphabet, rng)
    st_digits = wl.random_digits(machine.stack_alphabet, rng)
    pair = g.EncodingPair(input=g.Ordering(machine.input_alphabet, in_digits),
                          stack=g.Ordering(machine.stack_alphabet, st_digits))
    state0 = g.initial_state(machine, rows[0][1], "S")
    trace = g.vs_run(machine, state0)
    orbit = g.nda_run(g.from_versatile_shift(machine, pair), g.encode_tape(state0, pair),
                      len(rows) - 1)
    return SimpleNamespace(rows=rows, trace=trace, orbit=orbit,
                           want=wl.chain_orbit(rows, in_digits, st_digits))


def test_chain_trace_accepts_at_two_k_plus_one():
    rows = wl.chain_trace(10)
    assert len(rows) == 22 and rows[-1] == ((), (), "accept")
    assert rows[0] == (("S",), tuple("t%d" % i for i in range(11)), "predict(S -> t0 A1)")


def test_base_m_sums():
    assert wl.base_m(("a", "b"), {"a": 1, "b": 2}, 3) == Fraction(1, 3) + Fraction(2, 9)
    assert wl.base_m((), {}, 7) == 0


def test_chain_oracle_accepts_the_program_and_rejects_a_corrupted_orbit(small_chain):
    c = small_chain
    wl.check_chain_exact(c.trace, c.orbit, c.rows, c.want)
    bad = list(c.orbit)
    bad[2] = g.PhasePoint(bad[2].y1, bad[2].y2 + Fraction(1, 10**6))
    with pytest.raises(wl.OracleError):
        wl.check_chain_exact(c.trace, bad, c.rows, c.want)
    with pytest.raises(wl.OracleError):
        wl.check_chain_exact(c.trace, c.orbit[:-1], c.rows, c.want)


def test_chain_oracle_rejects_a_corrupted_trace(small_chain):
    c = small_chain
    steps = c.trace.steps
    bad = replace(c.trace, steps=steps[:1] + (replace(steps[1], operation="attach2"),) + steps[2:])
    with pytest.raises(wl.OracleError):
        wl.check_chain_exact(bad, c.orbit, c.rows, c.want)
    with pytest.raises(wl.OracleError):
        wl.check_chain_exact(replace(c.trace, verdict=g.REJECT), c.orbit, c.rows, c.want)


def test_network_divergence_finds_the_first_step_above_soundness():
    orbit = [(Fraction(1, 3), Fraction(1, 5)), (Fraction(1, 9), Fraction(0)), (Fraction(0), Fraction(0))]
    states = [SimpleNamespace(x=np.array([float(a), float(b), 1.0])) for a, b in orbit]
    assert wl.network_divergence(states, (0, 1), orbit) == (0.0, -1)
    states[1].x[1] = 1e-9 / 2
    assert wl.network_divergence(states, (0, 1), orbit) == (5e-10, -1)
    states[2].x[0] = 0.25
    assert wl.network_divergence(states, (0, 1), orbit) == (0.25, 2)
