"""Exact analysis of grand couplings of finite Markov chains.

A grand coupling runs one chain from every start state at once, driven by a
single random function per step. This package computes, in exact rational
arithmetic, how many trajectories such a coupling can leave unmerged: the
coalescence number of a coupling, the set of values achievable over all
couplings of a matrix, the block-structured couplings that realize them, and
a correct coupling-from-the-past sampler for the invariant law.
"""

__version__ = "0.1.0"

from .birkhoff import BirkhoffDecomposition, birkhoff_decomposition
from .blocks import (
    NotLumpable,
    check_lumpability,
    construct_block_measure,
    is_block_measure,
    lumpable_partitions,
    uniform_divisor_coupling,
)
from .cftp import (
    CoalescenceRecord,
    DidNotCoalesce,
    EquidistributionReport,
    RngStream,
    backward_record,
    cftp_sample,
    chi_square_pvalue,
    equidistribution_report,
    equidistribution_tolerance,
    forward_record,
    provably_never_coalesces,
    sample_counts,
    total_variation,
)
from .coupling import (
    BlockCoupling,
    ExplicitCoupling,
    ExplicitPermLaw,
    GrandCoupling,
    UniformPermLaw,
    doeblin_coupling,
    expand_support,
    is_consistent,
    parse_coupling,
    permutation_coupling,
    resum_mismatches,
    serialize_coupling,
    to_explicit,
)
from .diagram import emit_trajectory_diagram
from .errors import (
    BlockConditionsFail,
    BudgetExceeded,
    ClosureTooLarge,
    CoalesceError,
    CouplingFormatError,
    DimensionMismatch,
    EntryOutOfRange,
    InvalidOption,
    MalformedRational,
    NonSquare,
    NotADivisor,
    NotDoublyStochastic,
    NotIrreducible,
    NotText,
    NotationError,
    RowSumNotOne,
    SupportTooLarge,
    TooManyStates,
)
from .feasibility import (
    FeasibilityWitness,
    Infeasible,
    SupportTester,
    feasible_weights,
    is_weakly_feasible,
)
from .kset import (
    KExclusion,
    KMember,
    KSetReport,
    allowed_functions,
    can_exclude_second_largest,
    k_set_certificates,
    k_set_exact,
    k_set_report,
    single_pair_balance,
)
from .mapfun import MapFunction, Partition, Support, compose
from .matrix import (
    StochasticMatrix,
    invariant_distribution,
    is_doubly_stochastic,
    is_irreducible,
    parse_matrix,
    period,
    relabel,
)
from .rational import format_rational, parse_rational
from .reference import ExampleRow, ex7_support, example_ids, path_walk, run_all
from .semigroup import (
    close,
    coalescence_number,
    coalescing_pairs,
    limiting_partitions,
)

__all__ = [name for name in dir() if not name.startswith("_")]
