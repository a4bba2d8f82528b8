"""Central index factory.

Every index variant of the library is registered here as an
:class:`IndexSpec`; the CLI, the benchmark harness, the examples and the
sharded builder all construct indexes through :func:`build_index` instead
of calling scattered ``build`` classmethods directly.  Callers that want
several variants over identical samples pass a shared ``estimation=`` (the
baselines and the explicit minimizer constructions) or ``data=`` (the
MWST / MWSA / grid variants) through :func:`build_index`'s keyword options.
A sharded build refuses both: each shard derives its own stages from its
slice of the source.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from ..core.weighted_string import WeightedString
from ..errors import ConstructionError
from .base import UncertainStringIndex
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
]


@dataclass(frozen=True)
class IndexSpec:
    """Registration record of one index variant.

    ``needs_ell`` marks variants whose minimum pattern length is a build
    parameter.
    """

    name: str
    cls: type
    needs_ell: bool
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


def rebuild_in_place(index: UncertainStringIndex, *, estimation=None) -> dict:
    """Re-derive an index over its (mutated) source, adopting the result.

    The universal repair strategy behind
    :meth:`UncertainStringIndex.apply_updates`: build a fresh index of the
    same registered kind over ``index.source`` and transplant its state into
    the live object, so planners and services holding a reference
    keep working.  Nothing the index cached is reused — its estimation and
    leaf data are stale after an update — but a caller that already
    re-derived the z-estimation of the mutated string passes it as
    ``estimation`` so the build does not estimate a second time (the
    space-efficient construction ignores it).
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
    options = {} if estimation is None else {"estimation": estimation}
    if spec.needs_ell:
        # Keep the index's construction parameters: rebuilding with a default
        # minimizer scheme would silently change what the user built (and
        # what the store faithfully persisted).
        data = getattr(index, "data", None)
        scheme = getattr(data, "scheme", None)
        if scheme is not None:
            options["scheme"] = scheme
    fresh = spec.cls.build(index.source, index.z, ell, **options) if spec.needs_ell else (
        spec.cls.build(index.source, index.z, **options)
    )
    generation = index.generation
    index.__dict__.update(fresh.__dict__)
    index._generation = generation
    return {"strategy": "full-rebuild", "kind": spec.name, "ell": ell}


# --------------------------------------------------------------------------- #
# registrations                                                                #
# --------------------------------------------------------------------------- #
register_index(
    IndexSpec(
        "WST", WeightedSuffixTree, needs_ell=False,
        description="weighted suffix tree baseline (Θ(nz) nodes)",
    )
)
register_index(
    IndexSpec(
        "WSA", WeightedSuffixArray, needs_ell=False,
        description="weighted suffix array baseline (Θ(nz) entries)",
    )
)
register_index(
    IndexSpec(
        "MWST", MinimizerWST, needs_ell=True,
        description="minimizer solid-factor trees",
    )
)
register_index(
    IndexSpec(
        "MWSA", MinimizerWSA, needs_ell=True,
        description="minimizer solid-factor arrays",
    )
)
register_index(
    IndexSpec(
        "MWST-G", GridMinimizerWST, needs_ell=True,
        description="minimizer trees + Theorem-9 grid query",
    )
)
register_index(
    IndexSpec(
        "MWSA-G", GridMinimizerWSA, needs_ell=True,
        description="minimizer arrays + Theorem-9 grid query",
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
