"""WSA — the weighted suffix array baseline (state of the art, array flavour).

The weighted suffix array indexes every property suffix of the z-estimation:
its size and construction space are Θ(nz) and its queries take
O(m log(nz) + |Occ|) time with the binary-search implementation used here
(the paper's reference implementation has the same practical behaviour).
This is the strongest baseline the paper compares against and the one our
minimizer-based indexes are designed to undercut in space.
"""

from __future__ import annotations

import time

from ..core.estimation import ZEstimation, build_z_estimation
from ..core.weighted_string import WeightedString
from .base import UncertainStringIndex
from .property_structures import PropertySuffixStructure
from .space import DEFAULT_SPACE_MODEL, ConstructionTracker, IndexStats, SpaceModel

__all__ = ["WeightedSuffixArray"]


class WeightedSuffixArray(UncertainStringIndex):
    """The WSA baseline: generalised property suffix array over the z-estimation."""

    name = "WSA"

    def __init__(
        self,
        source: WeightedString,
        z: float,
        structure: PropertySuffixStructure,
        stats: IndexStats,
    ) -> None:
        super().__init__(source, z)
        self._structure = structure
        self._stats = stats

    # -- construction ---------------------------------------------------------------
    @classmethod
    def build(
        cls,
        source: WeightedString,
        z: float,
        *,
        estimation: ZEstimation | None = None,
        space_model: SpaceModel = DEFAULT_SPACE_MODEL,
    ) -> "WeightedSuffixArray":
        """Build the WSA for ``source`` and threshold ``1/z``.

        An existing z-estimation may be passed to share it across baselines;
        it is charged to the construction space either way, since the index
        cannot be built without it.
        """
        started = time.perf_counter()
        tracker = ConstructionTracker()
        # The input probability matrix is resident during every construction.
        tracker.allocate(space_model.probabilities(len(source) * source.sigma))
        if estimation is None:
            estimation = build_z_estimation(source, z)
        entries = estimation.width * (estimation.length + 1)
        estimation_cost = space_model.codes(
            estimation.width * estimation.length
        ) + space_model.words(estimation.width * estimation.length)
        tracker.allocate(estimation_cost)
        structure = PropertySuffixStructure(estimation)
        # Working space of the structure: text + SA + per-rank annotations.
        structure_cost = space_model.codes(entries) + space_model.words(3 * entries)
        tracker.allocate(structure_cost)
        stats = IndexStats(
            name=cls.name,
            index_size_bytes=cls._index_size(structure, space_model),
            construction_space_bytes=tracker.peak_bytes,
            construction_seconds=time.perf_counter() - started,
            counters={
                "entries": structure.entry_count,
                "estimation_width": estimation.width,
            },
        )
        return cls(source, z, structure, stats)

    @staticmethod
    def _index_size(structure: PropertySuffixStructure, model: SpaceModel) -> int:
        entries = structure.entry_count
        # SA entry, position-in-X, valid length, and the range-max index:
        # four words per entry, plus the concatenated text codes needed to
        # drive the binary searches.
        return model.words(4 * entries) + model.codes(entries)

    # -- queries -------------------------------------------------------------------------
    def _batch_locate(self, code_lists: list) -> list[list[int]]:
        """One binary-searched structure pass per pattern."""
        return [self._structure.locate(codes) for codes in code_lists]

    @property
    def structure(self) -> PropertySuffixStructure:
        """The underlying property suffix structure (for inspection/tests)."""
        return self._structure
