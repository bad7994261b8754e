"""Exact-arithmetic toolkit for rational approximation with one numerator
per prime denominator: arc coverage on the circle, sieve-style covering
statistics, hit-prime counts, and twisted ergodic averages."""

from .arcs import rat_str, to_fraction
from .ergodic import (
    SparsePrimeSet,
    s_closed,
    sparse_prime_set,
)
from .hits import (
    HitReport,
    RealApproximant,
    approximant_named,
    fractional_hits,
    hit_primes,
    loglog_heuristic,
    rational_point,
)
from .primes import harmonic_H, harmonic_H_float, sieve_range
from .sequences import (
    Block,
    BlockSchedule,
    BudgetExhaustedError,
    NumeratorSequence,
    SequenceFileError,
    block_construction,
    constant_sequence,
    greedy_sequence,
    load_sequence,
    random_sequence,
    save_sequence,
    uncovered_measure,
)
from .sievelab import (
    LevelSetProfile,
    SieveReport,
    alpha_and_markov,
    level_sets,
    omega_expectation_exact,
    omega_expectation_mc,
    pair_expectation,
)

__version__ = "0.1.0"

__all__ = [
    "rat_str",
    "to_fraction",
    "sieve_range",
    "harmonic_H",
    "harmonic_H_float",
    "NumeratorSequence",
    "SequenceFileError",
    "Block",
    "BlockSchedule",
    "BudgetExhaustedError",
    "random_sequence",
    "greedy_sequence",
    "constant_sequence",
    "block_construction",
    "uncovered_measure",
    "save_sequence",
    "load_sequence",
    "LevelSetProfile",
    "SieveReport",
    "level_sets",
    "alpha_and_markov",
    "pair_expectation",
    "omega_expectation_exact",
    "omega_expectation_mc",
    "RealApproximant",
    "HitReport",
    "hit_primes",
    "fractional_hits",
    "loglog_heuristic",
    "rational_point",
    "approximant_named",
    "SparsePrimeSet",
    "s_closed",
    "sparse_prime_set",
    "__version__",
]
