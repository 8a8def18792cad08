"""Versatile shifts: dot-local substitutions composed with a shift.

A versatile shift examines a fixed window around the dot of a dotted
sequence (l symbols left, r symbols right: the domain of dependence),
replaces the window content by rule-specific words, then shifts the dot.
Rules may carry one wildcard variable which binds to an arbitrary non-blank
input symbol; the same variable may appear on both sides of the dot (forcing
equality) and in the replacement.

A context-free grammar compiles to such a machine as a top-down recognizer:
one predict rule per production (rewrite the nonterminal on the stack by its
right-hand side, reversed in display order so the leftmost symbol lands on
top) and one attach rule per terminal (cancel equal stack top and input
head).  The empty tape is the accept fixed point, a tape matching no rule
halts as reject.
"""

import csv
import io
from dataclasses import dataclass
from itertools import product

from .errors import GrammarError, MachineBuildError
from .symbols import BLANK, Alphabet, DottedSequence


class Wildcard:
    """Marker for the rule variable; one shared instance is enough."""

    def __repr__(self):
        return "a?"


WILDCARD = Wildcard()

ACCEPT = "accept"
REJECT = "halt-reject"
STEP_LIMIT = "step-limit"


@dataclass(frozen=True)
class DoD:
    """Domain of dependence: window sizes left and right of the dot."""

    l: int
    r: int

    def __post_init__(self):
        if self.l < 0 or self.r < 0:
            raise MachineBuildError("window sizes must be >= 0, got (%d, %d)" % (self.l, self.r))


@dataclass(frozen=True)
class VsRule:
    """One dot-local rewrite.

    Match and replacement windows are stored top-first on the stack side
    (index 0 touches the dot); entries are concrete symbols or the wildcard.
    ``shift`` moves the dot after substitution (positive: rightward).
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
        uses_var = any(
            isinstance(tok, Wildcard)
            for tok in self.match_stack + self.match_input + self.repl_stack + self.repl_input
        )
        binds_var = any(isinstance(tok, Wildcard) for tok in self.match_stack + self.match_input)
        if uses_var and not binds_var:
            raise MachineBuildError("rule %r replaces with an unbound wildcard" % (self.label,))

    def display(self):
        """Human form with the stack side printed in reversed (tape) order."""

        def side(toks):
            return " ".join("a" if isinstance(t, Wildcard) else str(t) for t in toks) or "ε"

        return "%s . %s -> %s . %s" % (
            side(tuple(reversed(self.match_stack))), side(self.match_input),
            side(tuple(reversed(self.repl_stack))), side(self.repl_input),
        )


def _match_window(pattern, window, binding, wild_domain):
    """Try to match a pattern tuple against a window prefix; extend binding."""
    for tok, sym in zip(pattern, window):
        if isinstance(tok, Wildcard):
            if "a" in binding:
                if binding["a"] != sym:
                    return None
            else:
                if sym not in wild_domain:
                    return None
                binding["a"] = sym
        elif tok != sym:
            return None
    return binding


def _substitute(template, binding):
    return tuple(binding["a"] if isinstance(tok, Wildcard) else tok for tok in template)


@dataclass(frozen=True)
class VersatileShift:
    """A deterministic rule table over declared stack/input alphabets."""

    stack_alphabet: Alphabet
    input_alphabet: Alphabet
    dod: DoD
    rules: tuple
    blank: object = BLANK

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        for alpha in (self.stack_alphabet, self.input_alphabet):
            if alpha.blank != self.blank:
                raise MachineBuildError(
                    "alphabet %r must declare the machine blank %r" % (alpha.symbols, self.blank)
                )
        for rule in self.rules:
            if len(rule.match_stack) > self.dod.l or len(rule.match_input) > self.dod.r:
                raise MachineBuildError(
                    "rule %r match window exceeds the domain of dependence (%d, %d)"
                    % (rule.label, self.dod.l, self.dod.r)
                )
            for tok in rule.match_stack + rule.repl_stack:
                if not isinstance(tok, Wildcard) and tok not in self.stack_alphabet:
                    raise MachineBuildError("rule %r uses %r outside the stack alphabet" % (rule.label, tok))
            for tok in rule.match_input + rule.repl_input:
                if not isinstance(tok, Wildcard) and tok not in self.input_alphabet:
                    raise MachineBuildError("rule %r uses %r outside the input alphabet" % (rule.label, tok))
            if rule.shift > 0 and rule.shift > len(rule.repl_input):
                raise NonDeterminedShiftError(rule)
            if rule.shift < 0 and -rule.shift > len(rule.repl_stack):
                raise NonDeterminedShiftError(rule)
        # symbols a wildcard may bind: input alphabet minus the blank
        object.__setattr__(self, "wild_domain",
                           frozenset(s for s in self.input_alphabet if s != self.blank))
        self._check_determinism()

    def _check_determinism(self):
        stack_words = product(self.stack_alphabet.symbols, repeat=self.dod.l)
        for left in stack_words:
            for right in product(self.input_alphabet.symbols, repeat=self.dod.r):
                hits = [r.label for r in self.rules
                        if self._rule_matches(r, left, right) is not None]
                if len(hits) > 1:
                    raise MachineBuildError(
                        "window %r . %r matched by %d rules: %s"
                        % (" ".join(map(str, reversed(left))), " ".join(map(str, right)),
                           len(hits), ", ".join(hits))
                    )

    def _rule_matches(self, rule, left, right):
        binding = _match_window(rule.match_stack, left, {}, self.wild_domain)
        if binding is None:
            return None
        binding = _match_window(rule.match_input, right, binding, self.wild_domain)
        return binding

    def find_rule(self, state):
        """The unique rule matching the state's window, with its binding."""
        left, right = state.window(self.dod.l, self.dod.r)
        for rule in self.rules:
            binding = self._rule_matches(rule, left, right)
            if binding is not None:
                return rule, binding
        return None, None

    def apply(self, state, rule, binding):
        new_stack = _substitute(rule.repl_stack, binding) + state.stack[len(rule.match_stack):]
        new_input = _substitute(rule.repl_input, binding) + state.input[len(rule.match_input):]
        out = DottedSequence(new_stack, new_input, self.blank)
        if rule.shift:
            out = out.shift(rule.shift)
        return out


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

    Rules are tried first; the empty tape with no matching rule is the
    accept fixed point, any other tape with no matching rule halts as
    reject.  Both terminal labels return the state unchanged.
    """
    rule, binding = machine.find_rule(state)
    if rule is not None:
        return machine.apply(state, rule, binding), rule.label
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

    @property
    def final_state(self):
        return self.steps[-1].state


def vs_run(machine, state, max_steps=100):
    """Run to accept/reject or the step budget.

    Each trace row carries the operation applied at that time; the final row
    carries the terminal verdict (accept, halt-reject, or step-limit).
    """
    steps = []
    for t in range(max_steps + 1):
        nxt, label = vs_step(machine, state)
        if label in (ACCEPT, REJECT):
            steps.append(TraceStep(t, state, label))
            return RunTrace(tuple(steps), label)
        if t == max_steps:
            steps.append(TraceStep(t, state, STEP_LIMIT))
            return RunTrace(tuple(steps), STEP_LIMIT)
        steps.append(TraceStep(t, state, label))
        state = nxt
    raise AssertionError("unreachable")


def trace_csv(trace):
    """CSV text with columns time, stack, input, operation.

    Sides print in tape order (stack reversed, top adjacent to the dot);
    empty sides print as the empty-word glyph.
    """
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["time", "stack", "input", "operation"])
    for step in trace.steps:
        left = " ".join(map(str, reversed(step.state.stack))) or "ε"
        right = " ".join(map(str, step.state.input)) or "ε"
        w.writerow([step.time, left, right, step.operation])
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
        seen = []
        for lhs, _ in self.productions:
            if lhs not in seen:
                seen.append(lhs)
        return tuple(seen)

    @property
    def terminals(self):
        nts = set(self.nonterminals)
        seen = []
        for _, rhs in self.productions:
            for sym in rhs:
                if sym not in nts and sym not in seen:
                    seen.append(sym)
        return tuple(seen)


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

    Produces one predict rule per production Z -> alpha (stack window Z
    becomes alpha with its leftmost symbol on top, input untouched via the
    wildcard) and one attach rule per terminal (equal stack top and input
    head cancel).  Both rule families have shift 0 and window sizes (1, 1).

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

    rules = []
    for lhs, rhs in grammar.productions:
        rules.append(VsRule(
            label="predict(%s -> %s)" % (lhs, " ".join(rhs)),
            match_stack=(lhs,), match_input=(WILDCARD,),
            repl_stack=tuple(rhs), repl_input=(WILDCARD,),
        ))
    for t in terminals:
        rules.append(VsRule(
            label="attach",
            match_stack=(t,), match_input=(t,),
            repl_stack=(), repl_input=(),
        ))
    return VersatileShift(stack_alpha, input_alpha, DoD(1, 1), tuple(rules))


def initial_state(machine, sentence, start):
    """Dotted sequence ``start . sentence`` over the machine's alphabets."""
    sentence = tuple(sentence)
    for sym in sentence:
        if sym not in machine.input_alphabet:
            raise MachineBuildError("sentence symbol %r outside the input alphabet" % (sym,))
    if start not in machine.stack_alphabet:
        raise MachineBuildError("start symbol %r outside the stack alphabet" % (start,))
    return DottedSequence((start,), sentence, machine.blank)
