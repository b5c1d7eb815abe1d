"""Query-efficient maximization of XOS (max-of-additive) set functions.

The package provides counted value oracles over bitmask-encoded subsets,
approximation and exact solvers with per-run query accounting, hidden
hard-instance families with planted optima, dense class checks
(normalized/monotone/additive/submodular/subadditive) with witnesses, and
a trial harness behind the ``xosmax`` command-line tool.
"""

from .algorithms import (
    RHO_FALLBACK_THRESHOLD,
    EnumParams,
    SamplingParams,
    enumerate_maximal_cliques,
    preprocess,
    solve_brute_force,
    solve_enum_small_sets,
    solve_exact_2xos,
    solve_exact_star,
    solve_k_minus_1,
    solve_random_sampling,
)
from .classify import (
    CLASS_NAMES,
    DenseFunction,
    check_additive,
    check_class,
    check_monotone,
    check_normalized,
    check_star_condition,
    check_subadditive,
    check_submodular,
    materialize,
)
from .core import (
    MAX_GROUND_SIZE,
    MAX_QUERIES,
    AdditiveFunction,
    CapExceededError,
    CountingOracle,
    GroundSet,
    InstanceFormatError,
    SolveReport,
    ValueOverflowError,
    XosRepresentation,
    elements_of,
    mask_of,
    parse_explicit,
)
from .hardness import (
    HardGeneralInstance,
    HardKxosInstance,
    NeedleInstance,
    parse_hidden,
    uniform_size_probe,
)
from .instances import (
    InstanceHandle,
    dump_instance,
    instance_from_dict,
    load_instance,
    random_explicit,
)
from .rng import SplitMix64, sample_mask, sample_masks, sample_positions

__version__ = "0.1.0"

__all__ = [
    "AdditiveFunction",
    "CLASS_NAMES",
    "CapExceededError",
    "CountingOracle",
    "DenseFunction",
    "EnumParams",
    "GroundSet",
    "HardGeneralInstance",
    "HardKxosInstance",
    "InstanceFormatError",
    "InstanceHandle",
    "MAX_GROUND_SIZE",
    "MAX_QUERIES",
    "NeedleInstance",
    "RHO_FALLBACK_THRESHOLD",
    "SamplingParams",
    "SolveReport",
    "SplitMix64",
    "ValueOverflowError",
    "XosRepresentation",
    "check_additive",
    "check_class",
    "check_monotone",
    "check_normalized",
    "check_star_condition",
    "check_subadditive",
    "check_submodular",
    "dump_instance",
    "elements_of",
    "enumerate_maximal_cliques",
    "instance_from_dict",
    "load_instance",
    "mask_of",
    "materialize",
    "parse_explicit",
    "parse_hidden",
    "preprocess",
    "random_explicit",
    "sample_mask",
    "sample_masks",
    "sample_positions",
    "solve_brute_force",
    "solve_enum_small_sets",
    "solve_exact_2xos",
    "solve_exact_star",
    "solve_k_minus_1",
    "solve_random_sampling",
    "uniform_size_probe",
]
