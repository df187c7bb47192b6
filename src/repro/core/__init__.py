"""The paper's framework (Section 3): parallel queries over CONGEST."""

from .boosting import (
    BoostedOutcome,
    boost_first_found,
    boost_majority,
    boost_maximum,
    boost_median,
    boost_minimum,
    repetitions_for,
)
from .cost import CostModel, RoundLedger
from .operation import OPERATION_KINDS, Operation
from .framework import (
    CongestBatchOracle,
    DistributedInput,
    FrameworkConfig,
    FrameworkRun,
    PreparedCache,
    PreparedNetwork,
    ValueComputer,
    prepare_network,
    prepared_cache_stats,
    run_framework,
)
from .semigroup import (
    Semigroup,
    and_semigroup,
    max_semigroup,
    min_semigroup,
    or_semigroup,
    sum_semigroup,
    xor_semigroup,
)
from .state_transfer import TransferResult, collect_register, distribute_register

__all__ = [
    "BoostedOutcome",
    "boost_first_found",
    "boost_majority",
    "boost_maximum",
    "boost_median",
    "boost_minimum",
    "repetitions_for",
    "CostModel",
    "RoundLedger",
    "OPERATION_KINDS",
    "Operation",
    "CongestBatchOracle",
    "DistributedInput",
    "FrameworkConfig",
    "FrameworkRun",
    "PreparedCache",
    "PreparedNetwork",
    "ValueComputer",
    "prepare_network",
    "prepared_cache_stats",
    "run_framework",
    "Semigroup",
    "and_semigroup",
    "max_semigroup",
    "min_semigroup",
    "or_semigroup",
    "sum_semigroup",
    "xor_semigroup",
    "TransferResult",
    "collect_register",
    "distribute_register",
]
