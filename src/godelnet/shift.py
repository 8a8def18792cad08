"""Versatile shifts: dot-local substitutions composed with a shift.

A versatile shift examines a fixed window around the dot of a dotted
sequence (l symbols left, r symbols right: the domain of dependence),
replaces the window content by rule-specific words, then shifts the dot.
A rule's match words are concrete symbols, and it claims every window that
begins with them.  So the machine is its window table: built once with the
machine, it maps each (stack window, input window) to the one rule that
claims it and to the words that rule writes in the window's place.  A rule
may shift the dot only across symbols of its own replacement, so those
words follow from the window alone, and a step is one lookup: the words
replace the window while both tape tails ride along.

A context-free grammar compiles to such a machine as a top-down recognizer:
one predict rule per production and terminal (with that terminal as the
input head, rewrite the nonterminal on the stack by its right-hand side,
reversed in display order so the leftmost symbol lands on top) and one
attach rule per terminal (cancel equal stack top and input head).  The
empty tape is the accept fixed point, a tape matching no rule halts as
reject.
"""

import csv
import io
from dataclasses import dataclass, field
from itertools import product

from .errors import DomainError, GrammarError, MachineBuildError, ResourceLimitError
from .patterns import DEFAULT_CELL_BUDGET, _budget_cells
from .symbols import BLANK, Alphabet, DottedSequence, check_whole

ACCEPT = "accept"
REJECT = "halt-reject"
STEP_LIMIT = "step-limit"


@dataclass(frozen=True)
class DoD:
    """Domain of dependence: window sizes left and right of the dot."""

    l: int
    r: int

    def __post_init__(self):
        check_whole("window length l", self.l)
        check_whole("window length r", self.r)


@dataclass(frozen=True)
class VsRule:
    """One dot-local rewrite.

    Match and replacement windows are stored top-first on the stack side
    (index 0 touches the dot).  ``shift`` moves the dot after substitution
    (positive: rightward).
    """

    label: str
    match_stack: tuple
    match_input: tuple
    repl_stack: tuple
    repl_input: tuple
    shift: int = 0

    def __post_init__(self):
        for name in ("match_stack", "match_input", "repl_stack", "repl_input"):
            object.__setattr__(self, name, tuple(getattr(self, name)))


@dataclass(frozen=True)
class VersatileShift:
    """A deterministic rule table over declared stack/input alphabets.

    ``table`` maps each claimed (stack window, input window) pair, windows
    top-first on the stack side and padded with blanks, to
    ``(rule, r_st, r_in)``: its rule and the words the rule writes in the
    window's place, trailing blanks kept, since a word's length is how far
    the tail beneath it moves.  The machine's blank is the one blank both
    alphabets declare.
    """

    stack_alphabet: Alphabet
    input_alphabet: Alphabet
    dod: DoD
    rules: tuple
    table: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        blanks = self.stack_alphabet.blank, self.input_alphabet.blank
        if blanks[0] is None or blanks[0] != blanks[1]:
            raise MachineBuildError("the stack and input alphabets must declare one blank, got %r and %r"
                                    % blanks)
        for rule in self.rules:
            if len(rule.match_stack) > self.dod.l or len(rule.match_input) > self.dod.r:
                raise MachineBuildError(
                    "rule %r match window exceeds the domain of dependence (%d, %d)"
                    % (rule.label, self.dod.l, self.dod.r)
                )
            for tok in rule.match_stack + rule.repl_stack:
                if tok not in self.stack_alphabet:
                    raise MachineBuildError("rule %r uses %r outside the stack alphabet" % (rule.label, tok))
            for tok in rule.match_input + rule.repl_input:
                if tok not in self.input_alphabet:
                    raise MachineBuildError("rule %r uses %r outside the input alphabet" % (rule.label, tok))
            if rule.shift > 0 and rule.shift > len(rule.repl_input):
                raise NonDeterminedShiftError(rule)
            if rule.shift < 0 and -rule.shift > len(rule.repl_stack):
                raise NonDeterminedShiftError(rule)
        stack, inp = self.stack_alphabet.symbols, self.input_alphabet.symbols
        # count the windows (cells) each rule claims before listing any
        claimed = sum(_budget_cells("rule %r" % rule.label, (len(stack), self.dod.l - len(rule.match_stack)),
                                    (len(inp), self.dod.r - len(rule.match_input))) for rule in self.rules)
        if claimed > DEFAULT_CELL_BUDGET:
            raise ResourceLimitError("rules claim %d cells, budget is %d" % (claimed, DEFAULT_CELL_BUDGET))
        claims = {}  # window -> the rules claiming it, in rule order
        for rule in self.rules:
            for st_tail in product(stack, repeat=self.dod.l - len(rule.match_stack)):
                for in_tail in product(inp, repeat=self.dod.r - len(rule.match_input)):
                    window = rule.match_stack + st_tail, rule.match_input + in_tail
                    claims.setdefault(window, []).append(rule)
        clashes = [window for window, hits in claims.items() if len(hits) > 1]
        if clashes:
            # name the first clash in product order: stack window major
            left, right = min(clashes, key=lambda w: ([stack.index(s) for s in w[0]],
                                                      [inp.index(s) for s in w[1]]))
            hits = [rule.label for rule in claims[left, right]]
            raise MachineBuildError(
                "window %r . %r matched by %d rules: %s"
                % (" ".join(map(str, reversed(left))), " ".join(map(str, right)),
                   len(hits), ", ".join(hits))
            )
        object.__setattr__(self, "table", {window: (hits[0],) + _rewrite(hits[0], *window)
                                           for window, hits in claims.items()})

    @property
    def blank(self):
        return self.stack_alphabet.blank


def _rewrite(rule, w_st, w_in):
    """The words (r_st, r_in) ``rule`` writes in place of window (w_st, w_in).

    The replacement takes the place of the matched symbols, beside the
    unmatched rest of the window; then ``shift`` symbols cross the dot, the
    nearest first.  They all come from the replacement, so both tails ride
    along unchanged.
    """
    st = rule.repl_stack + w_st[len(rule.match_stack):]
    inp = rule.repl_input + w_in[len(rule.match_input):]
    k = rule.shift
    if k > 0:
        return inp[k - 1::-1] + st, inp[k:]
    if k < 0:
        return st[-k:], st[-k - 1::-1] + inp
    return st, inp


class NonDeterminedShiftError(MachineBuildError):
    """Shift would move symbols the rule does not pin down (tail-dependent,
    hence not an affine action on any cell)."""

    def __init__(self, rule):
        super().__init__(
            "rule %r shifts %d past its replacement window; the moved symbols would "
            "depend on the tape tail" % (rule.label, rule.shift)
        )


def vs_step(machine, state):
    """One machine step: (next state, operation label).

    A claimed window is replaced by its rule's words while both tails ride
    along; with no rule, the empty tape is the accept fixed point and any
    other tape halts as reject.  Both terminal labels return the state
    unchanged.  A tape whose blank is not the machine's is a DomainError:
    its window would be padded with a symbol no table entry holds.
    """
    blank = machine.blank
    if state.blank != blank:
        raise DomainError("the tape's blank %r is not the machine's blank %r" % (state.blank, blank))
    l, r = machine.dod.l, machine.dod.r
    entry = machine.table.get(state.window(l, r))
    if entry is not None:
        rule, r_st, r_in = entry
        return DottedSequence(r_st + state.stack[l:], r_in + state.input[r:], blank), rule.label
    if state.is_empty:
        return state, ACCEPT
    return state, REJECT


@dataclass(frozen=True)
class TraceStep:
    time: int
    state: DottedSequence
    operation: str


@dataclass(frozen=True)
class RunTrace:
    steps: tuple
    verdict: str  # accept / halt-reject / step-limit


def vs_run(machine, state, max_steps=100):
    """Run to accept/reject or the step budget.

    Each trace row carries the operation applied at that time; the final row
    carries the terminal verdict (accept, halt-reject, or step-limit).
    A budget that is not an int >= 0 raises DomainError.
    """
    check_whole("max_steps", max_steps)
    steps = []
    for t in range(max_steps + 1):
        nxt, label = vs_step(machine, state)
        if label not in (ACCEPT, REJECT) and t == max_steps:
            label = STEP_LIMIT
        steps.append(TraceStep(t, state, label))
        if label in (ACCEPT, REJECT, STEP_LIMIT):
            break
        state = nxt
    return RunTrace(tuple(steps), label)


def trace_csv(trace):
    """CSV text with columns time, stack, input (as ``DottedSequence.side_texts`` writes them), operation."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["time", "stack", "input", "operation"])
    for step in trace.steps:
        w.writerow([step.time, *step.state.side_texts(), step.operation])
    return out.getvalue()


# ---------------------------------------------------------------------------
# context-free grammars and their top-down compilation

@dataclass(frozen=True)
class Cfg:
    """Productions as (lhs, rhs) pairs; the first lhs is the start symbol."""

    productions: tuple

    def __post_init__(self):
        prods = tuple((lhs, tuple(rhs)) for lhs, rhs in self.productions)
        object.__setattr__(self, "productions", prods)
        if not prods:
            raise GrammarError("grammar has no productions")
        for lhs, rhs in prods:
            if not rhs:
                raise GrammarError("empty right-hand side for %r is not supported" % lhs)

    @property
    def start(self):
        return self.productions[0][0]

    @property
    def nonterminals(self):
        return tuple(dict.fromkeys(lhs for lhs, _ in self.productions))

    @property
    def terminals(self):
        nts = set(self.nonterminals)
        return tuple(dict.fromkeys(sym for _, rhs in self.productions for sym in rhs if sym not in nts))


def parse_grammar(text, source="<grammar>"):
    """Parse "LHS -> RHS1 RHS2 ..." lines; '#' starts a comment."""
    productions = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise GrammarError("expected 'LHS -> RHS...' in %s" % source, line=lineno)
        lhs, _, rhs = line.partition("->")
        lhs = lhs.strip()
        rhs_syms = rhs.split()
        if not lhs or " " in lhs:
            raise GrammarError("left-hand side must be a single symbol, got %r" % lhs, line=lineno)
        if not rhs_syms:
            raise GrammarError("empty right-hand side for %r" % lhs, line=lineno)
        if lhs == BLANK or BLANK in rhs_syms:
            raise GrammarError("the blank glyph cannot be a grammar symbol", line=lineno)
        productions.append((lhs, tuple(rhs_syms)))
    return Cfg(tuple(productions))


def load_grammar(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grammar(fh.read(), source=str(path))


def compile_cfg_topdown(grammar):
    """Compile a grammar into the top-down recognizer machine.

    Produces one predict rule per production Z -> alpha and terminal t
    (window Z . t becomes alpha . t with alpha's leftmost symbol on top) and
    one attach rule per terminal (equal stack top and input head cancel).
    Both rule families have shift 0 and window sizes (1, 1).

    Deterministic one-symbol-lookahead recognition needs a unique production
    per nonterminal; grammars violating that are rejected with the
    conflicting rules listed.
    """
    per_nt = {}
    for lhs, rhs in grammar.productions:
        per_nt.setdefault(lhs, []).append((lhs, rhs))
    conflicts = {nt: prods for nt, prods in per_nt.items() if len(prods) > 1}
    if conflicts:
        listing = "; ".join(
            " | ".join("%s -> %s" % (lhs, " ".join(rhs)) for lhs, rhs in prods)
            for prods in conflicts.values()
        )
        raise GrammarError(
            "grammar is nondeterministic for one-symbol-lookahead top-down recognition: %s" % listing
        )

    terminals = grammar.terminals
    nonterminals = grammar.nonterminals
    stack_alpha = Alphabet((BLANK,) + terminals + nonterminals, blank=BLANK)
    input_alpha = Alphabet((BLANK,) + terminals, blank=BLANK)

    rules = [VsRule("predict(%s -> %s)" % (lhs, " ".join(rhs)), (lhs,), (t,), rhs, (t,))
             for lhs, rhs in grammar.productions for t in terminals]
    rules += [VsRule("attach", (t,), (t,), (), ()) for t in terminals]
    return VersatileShift(stack_alpha, input_alpha, DoD(1, 1), rules)


def initial_state(machine, sentence, start):
    """Dotted sequence ``start . sentence`` over the machine's alphabets."""
    sentence = tuple(sentence)
    for sym in sentence:
        if sym not in machine.input_alphabet:
            raise MachineBuildError("sentence symbol %r outside the input alphabet" % (sym,))
    if start not in machine.stack_alphabet:
        raise MachineBuildError("start symbol %r outside the stack alphabet" % (start,))
    return DottedSequence((start,), sentence, machine.blank)
