"""Stable roommates in groups of d with master-list and master-poset
preferences: solvers, parameters, and hardness-gadget generators."""

from .core import (
    Explicit,
    Instance,
    MasterListSets,
    MasterPoset,
    dominates,
    is_derived_from_master_list,
    is_derived_from_poset,
    materialize_explicit,
    matching_violations,
    normalize_matching,
    tupleset,
)
from .distance import deletion_distance, recover_strict_order
from .errors import (
    BudgetExceeded,
    CertificateFailure,
    CycleDetected,
    DuplicateContradiction,
    IncompletePreferences,
    InsufficientAgents,
    InvalidAssignment,
    MalformedFormula,
    MalformedSmti,
    MdsrError,
    NotPerfect,
    NotStable,
    NotStrictOrder,
    NotWellFormed,
    ParseError,
    PreconditionViolated,
    SelfInclusion,
    SizeMismatch,
    TooLarge,
    UnacceptableSet,
    ValidationError,
)
from .io import (
    parse_instance,
    parse_matching,
    serialize_instance,
    serialize_matching,
)
from .poset import LpoOrder, Poset, lpo_order, verify_lpo
from .reductions import (
    OneInThreeFormula,
    instable_instance,
    parse_formula,
    sat_backward_assignment,
    sat_forward_matching,
    sat_reduce,
)
from .smti import (
    SmtiInstance,
    cutoff_gadget_instance,
    smti_backward,
    smti_forward,
    smti_reduce,
    tie_gadget_instance,
)
from .solvers import (
    auto_solve,
    default_window,
    fpt_dp_solve,
    greedy_big_d_solve,
    group_span_bound,
    locality_bound,
    plan,
    strict_order_solve,
)
from .stability import (
    BlockingReport,
    brute_force_solve,
    enumerate_stable,
    find_blocking,
    is_blocking,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
