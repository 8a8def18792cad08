"""Godel encodings of symbolic computations and their neural realizations.

The toolkit follows one pipeline: a context-free grammar compiles to a
deterministic shift machine over dotted sequences; Godel encoding the two
tape sides turns the machine into a piecewise-affine map on the unit
square; that map synthesizes into a threshold/ramp network; and seeded
pattern-class observables measure the dynamics in a way that is invariant
under digit recodings, while classical aggregates are not.

Exact arithmetic (fractions) carries everything up to the network layer,
which is the only floating-point component.
"""

from .checks import demo_encodings, demo_machine, run_checks, suite_names
from .config import ExperimentConfig, load_config
from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    GodelnetError,
    GrammarError,
    InternalConsistencyError,
    MachineBuildError,
    ResourceLimitError,
    UnsupportedInputError,
)
from .harness import ExperimentReport, run_experiment, write_report
from .nda import (
    EncodingPair,
    Nda,
    PhasePoint,
    decode_point,
    encode_tape,
    from_versatile_shift,
    nda_run,
    nda_step,
)
from .network import (
    NetworkSpec,
    NeuralState,
    embed,
    na_micro_step,
    na_run,
    synthesize,
)
from .observables import (
    PermutationPair,
    amari,
    build_step_observable,
    dissimilarity,
    harmony,
    rho_pi,
    step_observable,
)
from .patterns import (
    EqualityPattern,
    interval_partition,
    orbit,
    pattern_of,
    same_orbit,
    square_partition,
)
from .shift import (
    ACCEPT,
    REJECT,
    Cfg,
    DoD,
    VersatileShift,
    VsRule,
    compile_cfg_topdown,
    initial_state,
    load_grammar,
    parse_grammar,
    vs_run,
    vs_step,
)
from .symbols import (
    BLANK,
    Alphabet,
    DottedSequence,
    Interval,
    OneSidedSequence,
    Ordering,
    cylinder,
    godel_decode,
    godel_encode,
    identity_ordering,
    recode,
    recode_ordering,
    ultrametric,
)

__version__ = "0.1.0"

__all__ = [
    "ACCEPT",
    "Alphabet",
    "BLANK",
    "Cfg",
    "ConfigError",
    "DivergenceError",
    "DoD",
    "DomainError",
    "DottedSequence",
    "EncodingPair",
    "EqualityPattern",
    "ExperimentConfig",
    "ExperimentReport",
    "GodelnetError",
    "GrammarError",
    "InternalConsistencyError",
    "Interval",
    "MachineBuildError",
    "Nda",
    "NetworkSpec",
    "NeuralState",
    "OneSidedSequence",
    "Ordering",
    "PermutationPair",
    "PhasePoint",
    "REJECT",
    "ResourceLimitError",
    "UnsupportedInputError",
    "VersatileShift",
    "VsRule",
    "amari",
    "build_step_observable",
    "compile_cfg_topdown",
    "cylinder",
    "decode_point",
    "demo_encodings",
    "demo_machine",
    "dissimilarity",
    "embed",
    "encode_tape",
    "from_versatile_shift",
    "godel_decode",
    "godel_encode",
    "harmony",
    "identity_ordering",
    "initial_state",
    "interval_partition",
    "load_config",
    "load_grammar",
    "na_micro_step",
    "na_run",
    "nda_run",
    "nda_step",
    "orbit",
    "parse_grammar",
    "pattern_of",
    "recode",
    "recode_ordering",
    "rho_pi",
    "run_checks",
    "run_experiment",
    "same_orbit",
    "square_partition",
    "step_observable",
    "suite_names",
    "synthesize",
    "ultrametric",
    "vs_run",
    "vs_step",
    "write_report",
]
