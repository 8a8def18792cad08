"""Grammar parsing, machine compilation, and machine runs."""

import pytest

from godelnet import (
    ACCEPT,
    BLANK,
    DoD,
    REJECT,
    VersatileShift,
    VsRule,
    WILDCARD,
    Alphabet,
    DottedSequence,
    compile_cfg_topdown,
    initial_state,
    parse_grammar,
    vs_run,
    vs_step,
)
from godelnet.errors import DomainError, GrammarError, MachineBuildError
from godelnet.shift import STEP_LIMIT, NonDeterminedShiftError, trace_csv

EXPECTED_TRACE = (
    (0, "S", "NP V NP", "predict(S -> NP VP)"),
    (1, "VP NP", "NP V NP", "attach"),
    (2, "VP", "V NP", "predict(VP -> V NP)"),
    (3, "NP V", "V NP", "attach"),
    (4, "NP", "NP", "attach"),
    (5, "ε", "ε", "accept"),
)


def test_parse_grammar_with_comments():
    cfg = parse_grammar("# toy\nS -> a B  # trailing\nB -> b\n")
    assert cfg.productions == (("S", ("a", "B")), ("B", ("b",)))
    assert cfg.start == "S"
    assert cfg.nonterminals == ("S", "B")
    assert cfg.terminals == ("a", "b")


@pytest.mark.parametrize("text,line", [
    ("S\n", 1),
    ("S -> a\nT ->\n", 2),
    ("S X -> a\n", 1),
    ("S -> ⊔\n", 1),
])
def test_parse_grammar_errors_carry_line_numbers(text, line):
    with pytest.raises(GrammarError) as err:
        parse_grammar(text)
    assert err.value.line == line


def test_empty_grammar_rejected():
    with pytest.raises(GrammarError):
        parse_grammar("# nothing here\n")


def test_compile_rejects_ambiguous_nonterminal():
    cfg = parse_grammar("S -> a\nS -> b\n")
    with pytest.raises(GrammarError) as err:
        compile_cfg_topdown(cfg)
    assert "S -> a" in str(err.value) and "S -> b" in str(err.value)


def test_compiled_machine_shape(machine):
    assert machine.dod == DoD(1, 1)
    # blank, then terminals, then production heads in first-appearance order
    assert machine.stack_alphabet.symbols == (BLANK, "NP", "V", "S", "VP")
    assert machine.input_alphabet.symbols == (BLANK, "NP", "V")
    labels = [r.label for r in machine.rules]
    assert labels.count("attach") == 2
    assert any(l.startswith("predict(S") for l in labels)


def test_demo_trace_is_exact(machine, start_state):
    trace = vs_run(machine, start_state, max_steps=10)
    assert trace.verdict == ACCEPT
    got = [
        (s.time,
         " ".join(reversed(s.state.stack)) or "ε",
         " ".join(s.state.input) or "ε",
         s.operation)
        for s in trace.steps
    ]
    assert tuple(got) == EXPECTED_TRACE


def test_trace_csv_matches(machine, start_state):
    lines = trace_csv(vs_run(machine, start_state)).strip().splitlines()
    assert lines[0] == "time,stack,input,operation"
    assert lines[1] == "0,S,NP V NP,predict(S -> NP VP)"
    assert lines[-1] == "5,ε,ε,accept"


def test_rejection_on_wrong_sentence(machine):
    state = initial_state(machine, ("V",), "S")
    trace = vs_run(machine, state, max_steps=10)
    assert trace.verdict == REJECT
    # predict fires once (the wildcard binds V), then no rule matches
    assert trace.steps[0].operation.startswith("predict")
    assert trace.steps[1].operation == REJECT


def test_wildcard_does_not_bind_blank(machine):
    state = initial_state(machine, (), "S")
    nxt, label = vs_step(machine, state)
    assert label == REJECT and nxt == state


def test_empty_tape_accepts(machine):
    state = DottedSequence()
    nxt, label = vs_step(machine, state)
    assert label == ACCEPT and nxt == state


def test_step_limit_verdict():
    alpha = Alphabet((BLANK, "x"), blank=BLANK)
    loop = VsRule("spin", ("x",), (), ("x",), ())
    machine = VersatileShift(alpha, alpha, DoD(1, 0), (loop,))
    trace = vs_run(machine, DottedSequence(("x",), ()), max_steps=5)
    assert trace.verdict == STEP_LIMIT
    assert trace.steps[-1].time == 5
    # a zero budget still traces the start state; a negative one is refused
    trace = vs_run(machine, DottedSequence(("x",), ()), max_steps=0)
    assert [(st.time, st.operation) for st in trace.steps] == [(0, STEP_LIMIT)]
    with pytest.raises(DomainError, match=r"^max_steps must be >= 0, got -1$"):
        vs_run(machine, DottedSequence(("x",), ()), max_steps=-1)


def test_wildcard_forces_equality():
    alpha = Alphabet((BLANK, "x", "y"), blank=BLANK)
    rule = VsRule("eq", (WILDCARD,), (WILDCARD,), (), ())
    machine = VersatileShift(alpha, alpha, DoD(1, 1), (rule,))
    hit, _ = machine.find_rule(DottedSequence(("x",), ("x",)))
    miss, _ = machine.find_rule(DottedSequence(("x",), ("y",)))
    assert hit is rule and miss is None


def test_determinism_check_catches_overlap():
    alpha = Alphabet((BLANK, "x", "y"), blank=BLANK)
    a = VsRule("broad", (WILDCARD,), (), ("x",), ())
    b = VsRule("narrow", ("x",), (), ("y",), ())
    with pytest.raises(MachineBuildError) as err:
        VersatileShift(alpha, alpha, DoD(1, 0), (a, b))
    assert "broad" in str(err.value) and "narrow" in str(err.value)


def test_shift_past_replacement_rejected():
    alpha = Alphabet((BLANK, "x"), blank=BLANK)
    rule = VsRule("slide", ("x",), (), (), (), shift=-1)
    with pytest.raises(NonDeterminedShiftError):
        VersatileShift(alpha, alpha, DoD(1, 0), (rule,))


def test_rule_validation():
    with pytest.raises(MachineBuildError):
        VsRule("free", ("x",), (), (WILDCARD,), ())  # unbound wildcard
    alpha = Alphabet((BLANK, "x"), blank=BLANK)
    stranger = VsRule("alien", ("z",), (), (), ())
    with pytest.raises(MachineBuildError):
        VersatileShift(alpha, alpha, DoD(1, 0), (stranger,))
    wide = VsRule("wide", ("x", "x"), (), (), ())
    with pytest.raises(MachineBuildError):
        VersatileShift(alpha, alpha, DoD(1, 0), (wide,))


def test_shift_moves_replacement_symbols():
    alpha = Alphabet((BLANK, "x", "y"), blank=BLANK)
    rule = VsRule("push", (), ("x",), (), ("y",), shift=1)
    machine = VersatileShift(alpha, alpha, DoD(0, 1), (rule,))
    state = DottedSequence((), ("x", "x"))
    nxt, label = vs_step(machine, state)
    assert label == "push"
    assert nxt == DottedSequence(("y",), ("x",))


def test_initial_state_validation(machine):
    with pytest.raises(MachineBuildError):
        initial_state(machine, ("NP", "Q"), "S")
    with pytest.raises(MachineBuildError):
        initial_state(machine, ("NP",), "Q")


def test_rule_display_reverses_stack_side():
    rule = VsRule("r", ("VP", "NP"), (WILDCARD,), ("V",), (WILDCARD,))
    assert rule.display() == "NP VP . a -> V . a"
