"""The index family: WST / WSA baselines and the minimizer-based indexes.

===========  ===============================================================
Index        Description
===========  ===============================================================
WST          Weighted suffix tree over the z-estimation (state of the art,
             tree flavour): Θ(nz) size, O(m + occ) queries.
WSA          Weighted suffix array (state of the art, array flavour):
             Θ(nz) size, binary-search queries.
MWST         Minimizer solid-factor trees + the simple Section-5 query.
MWSA         Array variant of MWST (binary search over sorted leaves).
MWST-G       MWST + 2D-grid query (Theorem 9).
MWSA-G       MWSA + 2D-grid query (Theorem 9).
MWST-SE      MWST built by the space-efficient construction of Section 4
             (never materialises the z-estimation).
SHARDED      Any of the above, built per overlapping chunk in parallel and
             queried through a merging front-end (``build_index(shards=N)``).
===========  ===============================================================

Construction goes through the central factory in :mod:`.registry`
(:func:`build_index`); built indexes persist
through the binary store in :mod:`repro.io.store`.  Every query — any mode
(``exists`` / ``count`` / ``locate`` / ``locate_probs`` / ``topk``), one
pattern or a batch, on any variant — executes through the unified planner
in :mod:`.query` as one batch; :mod:`repro.service` adds the cached serving
layer on top.
"""

from .base import (
    EMPTY_PATTERN_MESSAGE,
    UncertainStringIndex,
    UpdateReport,
    affected_pattern_starts,
    brute_force_occurrences,
    coerce_pattern,
    coerce_pattern_array,
)
from .minimizer_core import (
    FactorLeaf,
    LeafCollection,
    MinimizerIndexData,
    build_index_data_from_estimation,
)
from .mwst import (
    GridMinimizerWSA,
    GridMinimizerWST,
    MinimizerIndexBase,
    MinimizerWSA,
    MinimizerWST,
)
from .property_structures import PropertySuffixStructure
from .query import ExecutionPlan, Query, QueryMode, QueryPlanner, QueryResult
from .registry import (
    INDEX_CLASSES,
    REGISTRY,
    IndexSpec,
    available_kinds,
    build_index,
    get_spec,
    rebuild_in_place,
    register_index,
)
from .se_construction import SpaceEfficientMWST, build_index_data_space_efficient
from .sharded import Shard, ShardedIndex, plan_shards
from .space import DEFAULT_SPACE_MODEL, ConstructionTracker, IndexStats, SpaceModel
from .verification import (
    HeavyMismatchVerifier,
    exact_occurrence_products,
    verify_against_source,
    verify_candidate_batches,
    verify_candidates_against_source,
)
from .wsa import WeightedSuffixArray
from .wst import WeightedSuffixTree

__all__ = [
    "UncertainStringIndex",
    "UpdateReport",
    "affected_pattern_starts",
    "rebuild_in_place",
    "brute_force_occurrences",
    "coerce_pattern",
    "coerce_pattern_array",
    "EMPTY_PATTERN_MESSAGE",
    "Query",
    "QueryMode",
    "QueryResult",
    "QueryPlanner",
    "ExecutionPlan",
    "WeightedSuffixTree",
    "WeightedSuffixArray",
    "MinimizerWST",
    "MinimizerWSA",
    "GridMinimizerWST",
    "GridMinimizerWSA",
    "SpaceEfficientMWST",
    "ShardedIndex",
    "Shard",
    "plan_shards",
    "MinimizerIndexBase",
    "MinimizerIndexData",
    "LeafCollection",
    "FactorLeaf",
    "PropertySuffixStructure",
    "build_index_data_from_estimation",
    "build_index_data_space_efficient",
    "HeavyMismatchVerifier",
    "exact_occurrence_products",
    "verify_against_source",
    "verify_candidate_batches",
    "verify_candidates_against_source",
    "SpaceModel",
    "DEFAULT_SPACE_MODEL",
    "ConstructionTracker",
    "IndexStats",
    "INDEX_CLASSES",
    "REGISTRY",
    "IndexSpec",
    "register_index",
    "get_spec",
    "available_kinds",
    "build_index",
]
