"""Grammar parsing, machine compilation, and machine runs."""

import random
from itertools import product
from pathlib import Path

import pytest

from godelnet import (
    ACCEPT,
    BLANK,
    DoD,
    REJECT,
    VersatileShift,
    VsRule,
    Alphabet,
    DottedSequence,
    compile_cfg_topdown,
    initial_state,
    parse_grammar,
    vs_run,
    vs_step,
)
from godelnet.errors import DomainError, GrammarError, MachineBuildError, ResourceLimitError
from godelnet.shift import STEP_LIMIT, NonDeterminedShiftError, load_grammar, trace_csv

DEMO_GRAMMAR = Path(__file__).resolve().parent.parent / "configs" / "parser.grammar"
G4_GRAMMAR = "S -> t0 A1\nA1 -> t1 A2\nA2 -> t2 A3\nA3 -> t3 t4\n"

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


@pytest.mark.parametrize("grammar", [load_grammar(DEMO_GRAMMAR), parse_grammar(G4_GRAMMAR)],
                         ids=["demo", "G4"])
def test_every_window_steps_as_its_grammar_says(grammar):
    # the oracle reads the productions only: a nonterminal top over a
    # terminal head predicts its production, equal terminals attach, any
    # other window halts (accept on the empty tape, reject elsewhere)
    machine = compile_cfg_topdown(grammar)
    production = dict(grammar.productions)
    terminals = set(grammar.terminals)
    tails = ((), ()), ((grammar.start,), (grammar.terminals[0],))
    for top in machine.stack_alphabet:
        for head in machine.input_alphabet:
            for st_tail, in_tail in tails:
                state = DottedSequence((top,) + st_tail, (head,) + in_tail)
                if top in production and head in terminals:
                    want = (DottedSequence(production[top] + st_tail, (head,) + in_tail),
                            "predict(%s -> %s)" % (top, " ".join(production[top])))
                elif top == head and head in terminals:
                    want = DottedSequence(st_tail, in_tail), "attach"
                elif top == head == BLANK and not st_tail:
                    want = state, ACCEPT
                else:
                    want = state, REJECT
                assert vs_step(machine, state) == want


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
    # predict fires once (its input head is V), then no rule matches
    assert trace.steps[0].operation.startswith("predict")
    assert trace.steps[1].operation == REJECT


def test_predict_does_not_fire_on_a_blank_input_head(machine):
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


def test_the_machine_blank_is_the_blank_its_alphabets_share():
    alpha = Alphabet(("_", "x"), blank="_")
    machine = VersatileShift(alpha, alpha, DoD(1, 1), (VsRule("cancel", ("x",), ("x",), (), ()),))
    assert machine.blank == "_"
    trace = vs_run(machine, initial_state(machine, ("x",), "x"))
    assert [(st.time, st.operation) for st in trace.steps] == [(0, "cancel"), (1, ACCEPT)]
    assert trace.steps[-1].state == DottedSequence((), (), "_")
    assert vs_run(machine, DottedSequence(("x",), ("_", "x"), "_")).verdict == REJECT


def test_a_tape_with_another_blank_does_not_run():
    # padded with the default blank, the window (x, ⊔) is claimed by no rule,
    # so the tape used to halt as reject instead of accepting
    alpha = Alphabet(("_", "x"), blank="_")
    machine = VersatileShift(alpha, alpha, DoD(1, 1), (VsRule("eat", ("x",), (), (), ()),))
    trace = vs_run(machine, DottedSequence(("x",), (), "_"))
    assert [(st.time, st.operation) for st in trace.steps] == [(0, "eat"), (1, ACCEPT)]
    message = "the tape's blank '⊔' is not the machine's blank '_'"
    with pytest.raises(DomainError) as err:
        vs_step(machine, DottedSequence(("x",), ()))
    assert str(err.value) == message
    with pytest.raises(DomainError) as err:
        vs_run(machine, DottedSequence(("x",), ()))
    assert str(err.value) == message


@pytest.mark.parametrize("stack, inp, message", [
    (Alphabet((BLANK, "x"), blank=BLANK), Alphabet(("_", "x"), blank="_"),
     "the stack and input alphabets must declare one blank, got '⊔' and '_'"),
    (Alphabet((BLANK, "x")), Alphabet((BLANK, "x"), blank=BLANK),
     "the stack and input alphabets must declare one blank, got None and '⊔'"),
    (Alphabet((BLANK, "x")), Alphabet((BLANK, "x")),
     "the stack and input alphabets must declare one blank, got None and None"),
], ids=["different", "stack-none", "both-none"])
def test_alphabets_without_one_shared_blank_build_no_machine(stack, inp, message):
    with pytest.raises(MachineBuildError) as err:
        VersatileShift(stack, inp, DoD(1, 1), ())
    assert str(err.value) == message


def test_determinism_check_catches_overlap():
    alpha = Alphabet((BLANK, "x", "y"), blank=BLANK)
    a = VsRule("broad", (), (), ("x",), ())  # claims every window
    b = VsRule("narrow", ("x",), (), ("y",), ())
    with pytest.raises(MachineBuildError) as err:
        VersatileShift(alpha, alpha, DoD(1, 0), (a, b))
    assert str(err.value) == "window 'x' . '' matched by 2 rules: broad, narrow"


def test_determinism_check_names_the_first_window_in_product_order():
    # rule order meets window 'y' . 'y' first; product order (stack symbol
    # major, then input symbol, each in alphabet order) meets 'x' . 'x' first
    alpha = Alphabet((BLANK, "x", "y"), blank=BLANK)
    rules = (VsRule("late", ("y",), ("y",), (), ()), VsRule("any_y", ("y",), (), (), ()),
             VsRule("early", ("x",), ("x",), (), ()), VsRule("any_x", ("x",), (), (), ()))
    with pytest.raises(MachineBuildError) as err:
        VersatileShift(alpha, alpha, DoD(1, 1), rules)
    assert str(err.value) == "window 'x' . 'x' matched by 2 rules: early, any_x"


def test_shift_past_replacement_rejected():
    alpha = Alphabet((BLANK, "x"), blank=BLANK)
    rule = VsRule("slide", ("x",), (), (), (), shift=-1)
    with pytest.raises(NonDeterminedShiftError):
        VersatileShift(alpha, alpha, DoD(1, 0), (rule,))


def test_rule_validation():
    alpha = Alphabet((BLANK, "x"), blank=BLANK)
    stranger = VsRule("alien", ("z",), (), (), ())
    with pytest.raises(MachineBuildError):
        VersatileShift(alpha, alpha, DoD(1, 0), (stranger,))
    wide = VsRule("wide", ("x", "x"), (), (), ())
    with pytest.raises(MachineBuildError):
        VersatileShift(alpha, alpha, DoD(1, 0), (wide,))


def test_a_rule_claiming_more_windows_than_the_budget_is_refused_before_listing():
    # 3**13 = 1,594,323 windows over 3 symbols, past DEFAULT_CELL_BUDGET (10**6)
    alpha = Alphabet((BLANK, "x", "y"), blank=BLANK)
    anything = VsRule("anything", (), (), (), ())
    with pytest.raises(ResourceLimitError, match=r"^rule 'anything' needs 1594323 cells, budget is 1000000$"):
        VersatileShift(alpha, alpha, DoD(0, 13), (anything,))
    # two rules of 3**12 windows each pass alone but not together
    halves = (VsRule("x", (), ("x",), (), ()), VsRule("y", (), ("y",), (), ()))
    with pytest.raises(ResourceLimitError, match=r"^rules claim 1062882 cells, budget is 1000000$"):
        VersatileShift(alpha, alpha, DoD(0, 13), halves)


def test_a_rule_matching_the_full_window_builds_and_steps_at_the_same_window():
    alpha = Alphabet((BLANK, "x", "y"), blank=BLANK)
    word = ("x", "y") * 6 + ("x",)
    machine = VersatileShift(alpha, alpha, DoD(0, 13), (VsRule("full", (), word, ("y",), ("y", "y")),))
    assert len(machine.table) == 1
    nxt, label = vs_step(machine, DottedSequence((), word + ("x", "y")))
    assert (nxt, label) == (DottedSequence(("y",), ("y", "y", "x", "y")), "full")
    assert vs_step(machine, nxt) == (nxt, REJECT)


def test_shift_moves_replacement_symbols():
    alpha = Alphabet((BLANK, "x", "y"), blank=BLANK)
    rule = VsRule("push", (), ("x",), (), ("y",), shift=1)
    machine = VersatileShift(alpha, alpha, DoD(0, 1), (rule,))
    state = DottedSequence((), ("x", "x"))
    nxt, label = vs_step(machine, state)
    assert label == "push"
    assert nxt == DottedSequence(("y",), ("x",))


def _random_shifting_machine(rng):
    """Seeded machine over (blank, x, y) with windows up to (3, 3) whose rules
    match prefixes of distinct windows, write words that may end in blanks,
    and shift up to the length of their replacement either way."""
    syms = (BLANK, "x", "y")
    alpha = Alphabet(syms, blank=BLANK)
    l, r = rng.randrange(4), rng.randrange(4)
    windows = list(product(product(syms, repeat=l), product(syms, repeat=r)))
    while True:
        rules = []
        for idx, (ws, wi) in enumerate(rng.sample(windows, min(len(windows), rng.randrange(1, 6)))):
            repl_st = tuple(rng.choice(syms) for _ in range(rng.randrange(4)))
            repl_in = tuple(rng.choice(syms) for _ in range(rng.randrange(4)))
            if rng.random() < 0.3:
                repl_st += (BLANK,)
            if rng.random() < 0.3:
                repl_in += (BLANK,)
            shift = rng.randrange(-len(repl_st), len(repl_in) + 1)
            match_st, match_in = ws[:rng.randrange(l + 1)], wi[:rng.randrange(r + 1)]
            rules.append(VsRule("r%d" % idx, match_st, match_in, repl_st, repl_in, shift))
        try:
            return VersatileShift(alpha, alpha, DoD(l, r), tuple(rules))
        except MachineBuildError:  # two rules claim one window: draw again
            continue


def _step_by_list_pops(machine, stack, inp):
    """Oracle step: match the rules on the blank-padded tape, splice the
    replacement in as lists, then pop symbols across the dot one at a time."""
    l, r, blank = machine.dod.l, machine.dod.r, machine.blank
    padded_st = list(stack) + [blank] * l
    padded_in = list(inp) + [blank] * r
    hits = [rule for rule in machine.rules
            if tuple(padded_st[:len(rule.match_stack)]) == rule.match_stack
            and tuple(padded_in[:len(rule.match_input)]) == rule.match_input]
    assert len(hits) <= 1
    if not hits:
        return (stack, inp), (ACCEPT if not stack and not inp else REJECT)
    rule = hits[0]
    new_st = list(rule.repl_stack) + list(stack[len(rule.match_stack):])
    new_in = list(rule.repl_input) + list(inp[len(rule.match_input):])
    for _ in range(rule.shift):
        new_st.insert(0, new_in.pop(0) if new_in else blank)
    for _ in range(-rule.shift):
        new_in.insert(0, new_st.pop(0) if new_st else blank)
    while new_st and new_st[-1] == blank:
        new_st.pop()
    while new_in and new_in[-1] == blank:
        new_in.pop()
    return (tuple(new_st), tuple(new_in)), rule.label


def test_window_rewrites_step_as_list_pops_do():
    rng = random.Random(19)
    syms = (BLANK, "x", "y")
    shifts = set()
    for _ in range(150):
        machine = _random_shifting_machine(rng)
        shifts.update(rule.shift for rule in machine.rules)
        # every claimed window under a non-blank tail, so no trailing blank of
        # its words is trimmed, then random tapes, shorter than the window too
        tapes = [DottedSequence(w_st + ("x",), w_in + ("y",)) for w_st, w_in in machine.table]
        for _ in range(20):
            tapes.append(DottedSequence(tuple(rng.choice(syms) for _ in range(rng.randrange(6))),
                                        tuple(rng.choice(syms) for _ in range(rng.randrange(6)))))
        for tape in tapes:
            nxt, label = vs_step(machine, tape)
            assert ((nxt.stack, nxt.input), label) == _step_by_list_pops(machine, tape.stack, tape.input)
    assert {-3, -1, 1, 3} <= shifts


def test_initial_state_validation(machine):
    with pytest.raises(MachineBuildError):
        initial_state(machine, ("NP", "Q"), "S")
    with pytest.raises(MachineBuildError):
        initial_state(machine, ("NP",), "Q")
