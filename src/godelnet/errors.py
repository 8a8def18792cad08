"""Exception types shared across the toolkit.

Every error raised on purpose derives from GodelnetError so callers (and the
command line driver) can distinguish our diagnostics from genuine bugs.
"""


class GodelnetError(Exception):
    """Base class for all toolkit errors."""


class DomainError(GodelnetError):
    """An input value lies outside the documented domain (bad symbol, digit
    out of range, value outside the unit interval, malformed permutation)."""


class UnsupportedInputError(GodelnetError):
    """The input is well-formed but outside the class this implementation
    can represent faithfully."""


class GrammarError(GodelnetError):
    """A grammar file or rule set failed validation. Carries a line number
    when the problem is tied to a specific line of a grammar file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MachineBuildError(GodelnetError):
    """A versatile shift could not be assembled (window/alphabet mismatch,
    nondeterministic rule table, malformed rule, or a shift past the
    replacement, ``shift.NonDeterminedShiftError``).  A machine that is
    built acts affinely on every cell, so building its cell table cannot
    fail on the machine's account."""


class ResourceLimitError(GodelnetError):
    """An enumeration would exceed the configured cell/unit budget."""


class InternalConsistencyError(GodelnetError):
    """An invariant the implementation itself guarantees was violated; a bug
    or a corrupted structure, not a user error."""


class ConfigError(GodelnetError):
    """An experiment configuration file is missing, malformed or
    inconsistent with the machine it configures."""


class DivergenceError(GodelnetError):
    """Two routes that must agree (symbolic vs affine, affine vs neural)
    disagreed beyond tolerance. Carries the first counterexample."""

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample
