"""Reversal of one-way hash chains by binary pebbling.

The package exposes pluggable one-way functions, the four schedule families
with their exact half-integer analysis, a generic round-driven pebbler, two
in-place pebblers whose inter-round state is a countdown plus a slot array,
and a chained one-time identification protocol built on top.
"""

from .inplace import (
    DecodeError,
    InPlaceOptimal,
    InPlaceSpeed2,
    PebblerPhase,
    decode_states,
    restore,
    save,
    segment_budgets,
)
from .owf import Owf, OWF_NAMES, UnknownOwfError, WidthError, builtin, evaluate, iterate
from .pebbler import (
    ExhaustedError,
    Pebbler,
    RoundResult,
    TraceRow,
    reverse_oracle,
    run_outputs,
    run_trace,
)
from .protocol import IdentificationServer, Prover, Verifier, run_client
from .schedule import (
    FAMILIES,
    image_deficit,
    key_equation_holds,
    make_schedule,
    optimal_remaining,
    parity_round,
    unrounded_head,
    unrounded_optimal,
    unrounded_tail,
    work_sequence,
    work_sequence_half,
)

__all__ = [name for name in dir() if not name.startswith("_")]
