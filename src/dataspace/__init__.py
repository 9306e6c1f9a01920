"""Deterministic dataspace actor runtime.

Actors coordinate through a shared, network-managed set of assertions:
interest is itself an assertion, changes arrive as added/removed patches,
and everything an actor claimed vanishes the moment it terminates.  A
reactive layer compiles scripts, blocking states, and facets down to plain
behaviour functions.
"""

from .network import (
    Continue,
    MessageAction,
    MessageEvent,
    Network,
    NonQuiescent,
    OutputAction,
    PatchAction,
    PatchEvent,
    QUIT,
    QuitAction,
    SpawnAction,
    VisibilityMismatch,
    new_network,
)
from .patches import (
    EMPTY_PATCH,
    Patch,
    apply_patch,
    clamp_patch,
    crossings,
    delta,
    interests_of,
    seq_patches,
    visible,
)
from .reactive import (
    Assert,
    Asserted,
    Message,
    On,
    ReactiveState,
    Retracted,
    RisingEdge,
    StateSpec,
    When,
    forever,
    reactive_actor,
    state,
    until,
)
from .scenarios import SCENARIOS, run_scenario, traces_equivalent
from .tracing import TraceLog, aggregate_snapshots
from .values import (
    Bind,
    Capture,
    CaptureUnbounded,
    DuplicateBinder,
    MalformedText,
    Record,
    Sym,
    WILDCARD,
    canonical_decode,
    canonical_encode,
    canonical_key,
    compile_surface,
    erase,
    intersect,
    is_ground,
    is_pattern,
    matches,
    observe,
    project_assertions,
    rec,
    sort_patterns,
)

__version__ = "0.1.0"
