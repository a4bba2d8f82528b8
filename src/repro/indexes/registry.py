"""Central index factory and the staged construction pipeline.

Every index variant of the library is registered here as an
:class:`IndexSpec`; the CLI, the benchmark harness, the examples and the
sharded builder all construct indexes through :func:`build_index` (or a
:class:`ConstructionPipeline`) instead of calling scattered ``build``
classmethods directly.  The registry records what each variant needs so the
pipeline can share the expensive construction stages:

* **estimation** — the Θ(nz) z-estimation (shared by the baselines and the
  explicit minimizer constructions, so they index identical samples);
* **index data** — the sorted minimizer leaf collections (shared by the
  MWST / MWSA / grid variants);
* **assembly** — the per-variant final build (tries, grids, statistics).

``MWST-SE`` deliberately shares nothing: never materialising the
z-estimation is its contribution.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from ..core.estimation import ZEstimation, build_z_estimation
from ..core.weighted_string import WeightedString
from ..errors import ConstructionError
from ..sampling.minimizers import MinimizerScheme
from .base import UncertainStringIndex
from .minimizer_core import MinimizerIndexData, build_index_data_from_estimation
from .mwst import (
    GridMinimizerWSA,
    GridMinimizerWST,
    MinimizerWSA,
    MinimizerWST,
)
from .se_construction import SpaceEfficientMWST
from .wsa import WeightedSuffixArray
from .wst import WeightedSuffixTree

__all__ = [
    "IndexSpec",
    "REGISTRY",
    "register_index",
    "get_spec",
    "available_kinds",
    "build_index",
    "rebuild_in_place",
    "ConstructionPipeline",
]


@dataclass(frozen=True)
class IndexSpec:
    """Registration record of one index variant.

    ``needs_ell`` marks variants whose minimum pattern length is a build
    parameter; ``shares_estimation`` / ``shares_data`` tell the pipeline
    which cached stages the variant's build can consume.
    """

    name: str
    cls: type
    needs_ell: bool
    shares_estimation: bool = False
    shares_data: bool = False
    description: str = ""


#: Registry of every index variant keyed by its display name.
REGISTRY: dict[str, IndexSpec] = {}


def register_index(spec: IndexSpec) -> IndexSpec:
    """Register an index variant (last registration of a name wins)."""
    REGISTRY[spec.name] = spec
    return spec


def get_spec(kind: str) -> IndexSpec:
    """The registration record of a variant, or a helpful error."""
    try:
        return REGISTRY[kind]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise ConstructionError(
            f"unknown index kind {kind!r}; known kinds: {known}"
        ) from None


def available_kinds() -> tuple[str, ...]:
    """All registered variant names, sorted."""
    return tuple(sorted(REGISTRY))


def build_index(
    source: WeightedString,
    z: float,
    *,
    kind: str = "MWSA",
    ell: int | None = None,
    shards: int | None = None,
    workers: int | None = None,
    max_pattern_len: int | None = None,
    **options,
) -> UncertainStringIndex:
    """Build an index by name (``"WST"``, ``"WSA"``, ``"MWSA"``, ``"MWST-SE"``, ...).

    The minimizer-based kinds require ``ell`` (the minimum supported pattern
    length); the baselines ignore it.  Any remaining keyword options are
    passed to the specific ``build`` classmethod.

    When ``shards`` is given the named variant becomes the per-shard index of
    a :class:`~repro.indexes.sharded.ShardedIndex` built over ``shards``
    chunks of the input (``workers`` parallel build processes, shard overlap
    sized for patterns up to ``max_pattern_len``).
    """
    if shards is not None:
        from .sharded import ShardedIndex

        return ShardedIndex.build(
            source,
            z,
            kind=kind,
            ell=ell,
            shard_count=shards,
            workers=workers,
            max_pattern_len=max_pattern_len,
            **options,
        )
    spec = get_spec(kind)
    if spec.needs_ell:
        if ell is None:
            raise ConstructionError(f"index kind {kind!r} requires the ell parameter")
        return spec.cls.build(source, z, ell, **options)
    return spec.cls.build(source, z, **options)


def rebuild_in_place(index: UncertainStringIndex) -> dict:
    """Re-derive an index over its (mutated) source, adopting the result.

    The universal repair strategy behind
    :meth:`UncertainStringIndex.apply_updates`: build a fresh index of the
    same registered kind over ``index.source`` and transplant its state into
    the live object, so planners, engines and services holding a reference
    keep working.  Nothing cached is reused — shared construction stages
    (estimations, leaf data) would be stale after an update.
    """
    spec = REGISTRY.get(index.name)
    if spec is None or type(index) is not spec.cls:
        spec = next(
            (entry for entry in REGISTRY.values() if type(index) is entry.cls), None
        )
    if spec is None:
        raise ConstructionError(
            f"cannot rebuild {type(index).__name__}: the index kind is not "
            "registered (register it or override _rebuild_updated)"
        )
    ell = index.minimum_pattern_length if spec.needs_ell else None
    options = {}
    if spec.needs_ell:
        # Keep the index's construction parameters: rebuilding with a default
        # minimizer scheme would silently change what the user built (and
        # what the store faithfully persisted).
        data = getattr(index, "data", None)
        scheme = getattr(data, "scheme", None)
        if scheme is not None:
            options["scheme"] = scheme
    fresh = spec.cls.build(index.source, index.z, ell, **options) if spec.needs_ell else (
        spec.cls.build(index.source, index.z)
    )
    generation = index.generation
    index.__dict__.update(fresh.__dict__)
    index._generation = generation
    return {"strategy": "full-rebuild", "kind": spec.name, "ell": ell}


class ConstructionPipeline:
    """Staged, reusable construction of many variants over one input.

    The pipeline caches the stage outputs (z-estimation, minimizer scheme,
    shared leaf collections) so that building several variants — the
    benchmark suites, the oracle tests, a sharded build that compares
    against its monolithic twin — pays each stage once.  Stages are computed
    lazily: a pipeline used only for ``MWST-SE`` never builds an estimation.
    """

    def __init__(
        self,
        source: WeightedString,
        z: float,
        *,
        ell: int | None = None,
        scheme: MinimizerScheme | None = None,
        estimation: ZEstimation | None = None,
        method: str = "vectorized",
        grid_brute_force_limit: int | None = None,
    ) -> None:
        """``method`` picks the leaf construction path (see
        :data:`~repro.indexes.minimizer_core.LEAF_METHODS`) — the
        array-backed fast path (default) or the per-leaf ``"reference"``
        path; the old-vs-new construction benchmark runs one pipeline of
        each, every other caller keeps the default.
        ``grid_brute_force_limit`` overrides the ``Grid2D`` backend-selection
        threshold for the grid variants built by this pipeline."""
        self.source = source
        self.z = z
        self.ell = ell
        self.method = method
        self.grid_brute_force_limit = grid_brute_force_limit
        self._scheme = scheme
        self._estimation = estimation
        self._data: MinimizerIndexData | None = None

    # -- stages -----------------------------------------------------------------
    def scheme(self) -> MinimizerScheme:
        """Stage 0: the (ℓ, k)-minimizer scheme (cached)."""
        if self._scheme is None:
            if self.ell is None:
                raise ConstructionError(
                    "the pipeline needs ell to derive a minimizer scheme"
                )
            self._scheme = MinimizerScheme(self.ell, self.source.sigma)
        return self._scheme

    def estimation(self) -> ZEstimation:
        """Stage 1: the z-estimation (cached, shared across variants)."""
        if self._estimation is None:
            self._estimation = build_z_estimation(self.source, self.z)
        return self._estimation

    def index_data(self) -> MinimizerIndexData:
        """Stage 2: the sorted minimizer leaf collections (cached)."""
        if self._data is None:
            if self.ell is None:
                raise ConstructionError(
                    "the pipeline needs ell to build minimizer index data"
                )
            self._data = build_index_data_from_estimation(
                self.source,
                self.z,
                self.ell,
                scheme=self.scheme(),
                estimation=self.estimation(),
                method=self.method,
            )
        return self._data

    # -- assembly ---------------------------------------------------------------
    def build(self, kind: str, **options) -> UncertainStringIndex:
        """Stage 3: assemble one variant, feeding it the cached stages."""
        spec = get_spec(kind)
        if spec.shares_estimation:
            options.setdefault("estimation", self.estimation())
        if spec.shares_data:
            options.setdefault("data", self.index_data())
        if spec.needs_ell and not spec.shares_data:
            options.setdefault("scheme", self.scheme())
        if self.grid_brute_force_limit is not None and getattr(spec.cls, "use_grid", False):
            options.setdefault("grid_brute_force_limit", self.grid_brute_force_limit)
        return build_index(self.source, self.z, kind=kind, ell=self.ell, **options)

    def build_many(self, kinds) -> dict[str, UncertainStringIndex]:
        """Assemble several variants over the shared stages."""
        return {kind: self.build(kind) for kind in kinds}


# --------------------------------------------------------------------------- #
# registrations                                                                #
# --------------------------------------------------------------------------- #
register_index(
    IndexSpec(
        "WST", WeightedSuffixTree, needs_ell=False, shares_estimation=True,
        description="weighted suffix tree baseline (Θ(nz) nodes)",
    )
)
register_index(
    IndexSpec(
        "WSA", WeightedSuffixArray, needs_ell=False, shares_estimation=True,
        description="weighted suffix array baseline (Θ(nz) entries)",
    )
)
register_index(
    IndexSpec(
        "MWST", MinimizerWST, needs_ell=True, shares_estimation=True,
        shares_data=True, description="minimizer solid-factor trees",
    )
)
register_index(
    IndexSpec(
        "MWSA", MinimizerWSA, needs_ell=True, shares_estimation=True,
        shares_data=True, description="minimizer solid-factor arrays",
    )
)
register_index(
    IndexSpec(
        "MWST-G", GridMinimizerWST, needs_ell=True, shares_estimation=True,
        shares_data=True, description="minimizer trees + Theorem-9 grid query",
    )
)
register_index(
    IndexSpec(
        "MWSA-G", GridMinimizerWSA, needs_ell=True, shares_estimation=True,
        shares_data=True, description="minimizer arrays + Theorem-9 grid query",
    )
)
register_index(
    IndexSpec(
        "MWST-SE", SpaceEfficientMWST, needs_ell=True,
        description="space-efficient DFS construction (no z-estimation)",
    )
)

class _RegistryClassView(Mapping):
    """Live name → class view over :data:`REGISTRY` (the legacy API).

    A mapping rather than a snapshot dict so that variants registered after
    import — through :func:`register_index` — appear everywhere
    ``INDEX_CLASSES`` is consumed (CLI choices, sweeps, docs tables).
    """

    def __getitem__(self, name: str) -> type:
        return REGISTRY[name].cls

    def __iter__(self):
        return iter(REGISTRY)

    def __len__(self) -> int:
        return len(REGISTRY)


#: Registry view of every index class keyed by its display name (legacy API).
INDEX_CLASSES = _RegistryClassView()
