"""z-estimations of weighted strings (Theorem 2).

A *z-estimation* of a weighted string ``X`` of length ``n`` is an indexed
family ``S = (S_j, π_j)`` of ``⌊z⌋`` standard strings of length ``n`` with
properties ``π_j`` such that, for **every** string ``P`` and position ``i``::

    Count_S(P, i)  =  ⌊ z · P(X[i .. i+|P|-1] = P) ⌋

where ``Count_S(P, i)`` is the number of strings of the family in which ``P``
occurs at ``i`` respecting the property.  The estimation is the substrate of
every index in the paper: the weighted suffix tree/array index its property
suffixes directly, and the minimizer-based indexes sample it.

Construction algorithm
----------------------
The paper cites Barton et al. for an ``O(nz)``-time construction; we re-derive
one from the definition (the resulting family is generally different from
theirs — z-estimations are not unique — but satisfies the same defining
property, which is all any index relies on).

Tokens ``0 .. ⌊z⌋-1`` (the future strings) are processed left to right.  After
position ``e`` the construction maintains the invariant

    for every start ``i ≤ e`` and every string ``P`` on ``[i, e]``:
    exactly ``⌊z·P(X[i..e]=P)⌋`` tokens carry ``P`` at ``i`` *and* are still
    "alive from" ``i`` (their property will cover ``[i, e]``).

Because a token that is alive from ``i`` is also alive from every later start,
the groups of tokens that agree on ``[i, e]`` form a laminar family, which the
construction stores as a tree of ``_Node`` objects (group = node subtree).  A
group's *weight* at level ``i`` is ``w(i) = z·P(X[i..e-1]=P)``; by the
invariant the group holds ``⌊w(i)⌋`` tokens alive from ``i``.  Position ``e``
must leave exactly ``q(α) = ⌊w(i)·p_e(α)⌋`` of them taking letter ``α`` and
staying alive from ``i``.

Why a greedy bottom-up assignment always succeeds: the floor is
super-additive, ``⌊a⌋ + ⌊b⌋ ≤ ⌊a + b⌋``, so quotas of parts never add up to
more than the quota of the whole.  Two consequences.  (1) The sub-groups
(children) of a group extend its string by disjoint prefixes, so their
weights sum to at most the group's weight at the seam, and the tokens they
already committed to ``α`` number ``Σ ⌊w_c·p_e(α)⌋ ≤ ⌊w(i)·p_e(α)⌋`` — no
child ever commits more than its parent's quota.  (2) Over all letters,
``Σ_α ⌊w(i)·p_e(α)⌋ ≤ ⌊w(i)·Σ_α p_e(α)⌋ = ⌊w(i)⌋``, the tokens the group
has at that level; so what is still missing, ``Σ_α (q(α) - committed(α))``,
never exceeds the group's tokens not yet committed — the free pool.  The
quotas are taken with the library's rounding tolerance
(:mod:`repro.core.numerics`), and the construction raises
:class:`~repro.errors.ConstructionError` if the pool ever runs short.  The
Hypothesis tests check the resulting Count property against a brute-force
oracle.

The fused pass
--------------
Positions whose distribution has a single positive letter leave the tree
unchanged: their columns are written in one broadcast and the run is folded
into the root's level range.  Every uncertain position is one post-order
pass over the tree.  At each group, the pool is the children's leftover
tokens followed by the group's own members as the level segments advance
(finest first); each segment pops ``q(α) - committed(α)`` tokens per
positive letter, and the group then immediately builds its refined
per-letter groups — the tokens it assigned plus the children's refined
groups for the same letter, segment weights scaled by ``p_e(α)`` and
dropped below 1 — so no second traversal is needed.  An uncertain
position costs ``O(⌊z⌋ + G·L + S·L)`` plain-Python steps for the ``G``
groups and ``S`` level segments of the tree and the ``L`` positive letters
of the row (on RSSI at z = 16: about 7 groups, 26 segments and 3 letters);
the ``O(n)`` certain positions and the ``Θ(nz)`` output are numpy work.
Uncertain rows are normalised, arg-maxed and written in blocks of a few
dozen, which bounds the memory of their plain-Python copies.  Rebuilding
after an update (:func:`resume_z_estimation`) runs the same scan from the
last checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConstructionError
from ..timing import stage_timer
from .numerics import RELATIVE_TOLERANCE, validate_threshold
from .properties import (
    GroupTreeArrays,
    PropertyArray,
    flatten_group_tree,
    restore_group_tree,
)
from .weighted_string import WeightedString

__all__ = [
    "ZEstimation",
    "EstimationCheckpoint",
    "build_z_estimation",
    "resume_z_estimation",
    "DEFAULT_CHECKPOINT_EVERY",
]

#: Default checkpoint granularity ``K``: construction state is snapshotted before
#: processing every ``K``-th position.  Each checkpoint costs ``O(⌊z⌋)``
#: memory (the alive-from vector plus the flattened group tree), so the whole
#: trail stays a vanishing fraction of the ``Θ(n⌊z⌋)`` family it annotates.
#: Tests shrink it (module-level, read at call time) to exercise boundary
#: behaviour on small strings.
DEFAULT_CHECKPOINT_EVERY = 256


@dataclass
class EstimationCheckpoint:
    """Construction state captured immediately before processing ``position``.

    Together with the (unchanged) prefix of the materialised family this is
    everything the left-to-right construction needs to continue: the
    per-token alive-from levels and the laminar group tree, flattened to
    :class:`~repro.core.properties.GroupTreeArrays` with the root's coarsest
    segment normalised to end at ``position`` (the construction folds runs of
    certain positions into it lazily, the state is the same).  Snapshots
    of identical states are bit-identical, which is what :meth:`matches`
    tests — the resume path's early-convergence check.
    """

    position: int
    alive_from: np.ndarray
    tree: GroupTreeArrays

    def matches(self, other: "EstimationCheckpoint") -> bool:
        """Bit-exact state equality (float segment weights included)."""
        return (
            int(self.position) == int(other.position)
            and np.array_equal(self.alive_from, other.alive_from)
            and self.tree.equals(other.tree)
        )

    def nbytes(self) -> int:
        return int(self.alive_from.nbytes) + self.tree.nbytes()


class ZEstimation:
    """The materialised family ``(S_j, π_j)_{j=1..⌊z⌋}`` of a weighted string.

    Attributes
    ----------
    strings:
        ``(⌊z⌋ × n)`` array of letter codes; row ``j`` is ``S_j``.
    ends:
        ``(⌊z⌋ × n)`` array of inclusive property ends; row ``j`` is ``π_j``.
        Both are ``int64`` when built; an estimation loaded from a store
        holds them as stored — the narrowest unsigned type that holds
        ``σ - 1`` and ``int32`` — and every reader accepts either.
    z:
        The weight threshold parameter.
    checkpoints:
        Construction-state snapshots (:class:`EstimationCheckpoint`) taken every
        ``K`` positions during construction, ordered by position.  Point
        updates resume the left-to-right construction from the last
        checkpoint at-or-before the first changed position instead of
        replaying from 0 (:func:`resume_z_estimation`).  Possibly empty —
        estimations loaded from old stores carry none and fall back to a
        full replay.
    """

    __slots__ = ("strings", "ends", "z", "_alphabet", "checkpoints")

    def __init__(
        self,
        strings: np.ndarray,
        ends: np.ndarray,
        z: float,
        alphabet,
        checkpoints: list | None = None,
    ) -> None:
        self.strings = strings
        self.ends = ends
        self.z = float(z)
        self._alphabet = alphabet
        self.checkpoints = list(checkpoints) if checkpoints else []

    # -- basic shape -----------------------------------------------------------
    @property
    def width(self) -> int:
        """``⌊z⌋`` — the number of strings in the family."""
        return int(self.strings.shape[0])

    @property
    def length(self) -> int:
        """``n`` — the length of each string."""
        return int(self.strings.shape[1])

    @property
    def alphabet(self):
        """The alphabet shared with the source weighted string."""
        return self._alphabet

    def __len__(self) -> int:
        return self.width

    def string(self, j: int) -> np.ndarray:
        """The code array of ``S_j``."""
        return self.strings[j]

    def text(self, j: int) -> str:
        """``S_j`` decoded through the alphabet."""
        return self._alphabet.decode(int(code) for code in self.strings[j])

    def property_array(self, j: int) -> PropertyArray:
        """``π_j`` as a :class:`PropertyArray`."""
        return PropertyArray(self.ends[j])

    # -- the defining Count property -------------------------------------------
    def covers(self, j: int, start: int, length: int) -> bool:
        """Whether the window ``[start, start+length)`` respects ``π_j``."""
        if length <= 0:
            return True
        return int(self.ends[j, start]) >= start + length - 1

    def count(self, pattern, position: int) -> int:
        """``Count_S(P, i)``: property-respecting occurrences at one position.

        Codes are compared as ``int64``, so a code outside the alphabet
        matches nothing even when the strings are stored narrower.
        """
        pattern = np.asarray(pattern, dtype=np.int64)
        m = len(pattern)
        if m == 0:
            return self.width
        if position < 0 or position + m > self.length:
            return 0
        window = self.strings[:, position : position + m]
        matches = np.all(window == pattern[None, :], axis=1)
        respected = self.ends[:, position] >= position + m - 1
        return int(np.count_nonzero(matches & respected))

    def occurrences(self, pattern) -> list[int]:
        """Positions where the pattern occurs (respecting properties) in ≥ 1 string."""
        pattern = np.asarray(pattern, dtype=np.int64)
        m = len(pattern)
        positions = []
        for start in range(self.length - m + 1):
            if self.count(pattern, start) >= 1:
                positions.append(start)
        return positions

    # -- content used by the indexes --------------------------------------------
    def valid_lengths(self) -> np.ndarray:
        """``(⌊z⌋ × n)`` array of per-start valid window lengths."""
        positions = np.arange(self.length, dtype=np.int64)[None, :]
        return self.ends - positions + 1

    def property_suffix_count(self) -> int:
        """Number of non-empty property suffixes (the WST/WSA leaf count)."""
        return int(np.count_nonzero(self.valid_lengths() > 0))

    def total_valid_length(self) -> int:
        """Sum of all valid window lengths — the Θ(nz) size driver of WST."""
        lengths = self.valid_lengths()
        return int(lengths[lengths > 0].sum())

    def nbytes(self) -> int:
        """Memory footprint of the materialised family (codes + property ends)."""
        return int(self.strings.nbytes + self.ends.nbytes)

    def __repr__(self) -> str:
        return (
            f"ZEstimation(width={self.width}, length={self.length}, z={self.z:g})"
        )


# --------------------------------------------------------------------------- #
# construction                                                                 #
# --------------------------------------------------------------------------- #
#: Uncertain rows are normalised, arg-maxed and written to the strings in
#: blocks of this many positions: a block of plain-Python rows costs far
#: less memory than the whole uncertain part of a long matrix.
_BLOCK = 64


class _Node:
    """A group of the laminar family maintained by the construction.

    ``segments`` is a list of ``(lo, hi, weight)`` triples ordered from the
    coarsest (largest levels) to the finest, partitioning the node's level
    range into maximal runs of constant weight; ``members`` holds
    ``(anchor_level, token)`` pairs for tokens anchored inside the node;
    ``children`` are the finer groups (their level ranges end one below
    this node's deepest segment).
    """

    __slots__ = ("segments", "members", "children")

    def __init__(self, segments: list, members: list, children: list) -> None:
        self.segments = segments
        self.members = members
        self.children = children


def _normalise(node: _Node) -> _Node:
    """Merge single-child chains and adjacent equal-weight segments."""
    while len(node.children) == 1:
        child = node.children[0]
        # Merge the seam segments when their weights coincide.
        if (
            node.segments
            and child.segments
            and abs(node.segments[-1][2] - child.segments[0][2]) <= 1e-12
        ):
            lo_child, _, weight = child.segments[0]
            node.segments[-1] = (lo_child, node.segments[-1][1], weight)
            node.segments.extend(child.segments[1:])
        else:
            node.segments.extend(child.segments)
        node.members.extend(child.members)
        node.children = child.children
    return node


class _Estimator:
    """Left-to-right construction state: alive-from levels and the group tree."""

    def __init__(
        self,
        source: WeightedString,
        z: float,
        checkpoint_every: int | None = None,
    ) -> None:
        self.source = source
        self.z = validate_threshold(z)
        self.width = int(math.floor(self.z + RELATIVE_TOLERANCE))
        self.length = len(source)
        # Snapshot cadence K (None: the module default at call time; 0: off).
        if checkpoint_every is None:
            checkpoint_every = DEFAULT_CHECKPOINT_EVERY
        self.checkpoint_every = max(0, int(checkpoint_every))
        self.checkpoints: list[EstimationCheckpoint] = []
        # Per-token alive-from level.
        self.alive_from = [0] * self.width
        # Property ends, filled as levels die.
        self.ends = np.empty((self.width, self.length), dtype=np.int64)
        # Laminar group tree; the root's coarsest level is the current position.
        # Initially every token is anchored at level 0 (alive from the start).
        self.root = _Node([(0, 0, self.z)], [(0, t) for t in range(self.width)], [])

    def _snapshot(self, position: int) -> EstimationCheckpoint:
        """Capture the construction state *before* processing ``position``."""
        return EstimationCheckpoint(
            position=int(position),
            alive_from=np.asarray(self.alive_from, dtype=np.int64),
            tree=flatten_group_tree(self.root, root_hi=int(position)),
        )

    # -- the scan ------------------------------------------------------------------
    def scan(self, strings: np.ndarray, start: int, stop_at=None) -> int | None:
        """Process positions ``start .. n-1``, writing their columns of ``strings``.

        ``start`` is 0 or a checkpoint position.  Certain positions (one
        positive letter) never change the construction state, so their columns
        are written in one broadcast and only the uncertain positions run
        :meth:`_step`.  Before each checkpoint boundary the state is
        snapshotted; ``stop_at(snapshot)`` may end the scan there (resume's
        convergence test), in which case that boundary is returned and the
        caller owns the uncertain columns and open property ends from it on.
        Otherwise the property ends of the tokens still alive are closed and
        ``None`` is returned.
        """
        n = self.length
        tail = self.source.matrix[start:]
        sums = tail.sum(axis=1)
        bad = sums <= 0.0
        if bad.any():
            position = start + int(np.argmax(bad))
            raise ConstructionError(f"position {position} has zero total probability")
        certain = np.count_nonzero(tail > 0.0, axis=1) == 1
        # For a certain row the single positive letter is the argmax.
        strings[:, start:][:, certain] = np.argmax(tail[certain], axis=1)[None, :]
        uncertain = np.flatnonzero(~certain)
        every = self.checkpoint_every
        boundary = start + every if every else n
        for first in range(0, len(uncertain), _BLOCK):
            offsets = uncertain[first : first + _BLOCK]
            rows = tail[offsets] / sums[offsets, None]
            heavy = np.argmax(rows, axis=1).tolist()
            hits, codes = np.nonzero(rows > 0.0)
            cuts = np.searchsorted(hits, np.arange(len(offsets) + 1)).tolist()
            codes = codes.tolist()
            columns = []
            for k, (offset, values) in enumerate(zip(offsets.tolist(), rows.tolist())):
                position = start + offset
                while boundary <= position:
                    if self._boundary(boundary, stop_at):
                        strings[:, offsets[:k] + start] = np.asarray(columns).T
                        return boundary
                    boundary += every
                # Fold the preceding run of certain positions into the
                # root's coarsest segment.
                lo, _, weight = self.root.segments[0]
                self.root.segments[0] = (lo, position, weight)
                columns.append(
                    self._step(position, values, codes[cuts[k] : cuts[k + 1]], heavy[k])
                )
            strings[:, offsets + start] = np.asarray(columns).T
        while every and boundary < n:
            if self._boundary(boundary, stop_at):
                return boundary
            boundary += every
        for token, level in enumerate(self.alive_from):
            self.ends[token, level:] = n - 1
        return None

    def _boundary(self, position: int, stop_at) -> bool:
        """Snapshot the state before ``position``; True when ``stop_at`` ends the scan."""
        snapshot = self._snapshot(position)
        if stop_at is not None and stop_at(snapshot):
            return True
        self.checkpoints.append(snapshot)
        return False

    def _step(self, position: int, values: list, positive: list, heavy: int) -> list:
        """One uncertain position: assign letters and refine the group tree.

        A single post-order pass.  For each group, tokens freed by its
        children and its own members anchored at or below each level
        segment (finest first) fill the quotas ``⌊w·p(α)⌋`` of the row's
        positive letters ``α``, minus what the children already committed;
        then the group's refined per-letter groups are built at once from
        the tokens it assigned and its children's refined groups.  Returns
        the letters of all tokens at ``position`` (unassigned tokens die
        here and take the heavy letter).
        """
        tolerance = RELATIVE_TOLERANCE
        keep = 1.0 - RELATIVE_TOLERANCE
        width = self.width
        letters = [heavy] * width
        depths = [position + 1] * width  # default: dead at this position
        scales = [values[code] for code in positive]
        # A segment with w·max(p) + tol < 1 has every quota 0 (rounding is
        # monotone), so it can only feed the pool.
        largest = max(scales)
        letter_range = range(len(positive))

        def visit(node: _Node):
            """Fill ``node``'s quotas; return (committed, free pool, refined groups)."""
            committed = [0] * len(positive)
            pool: list[int] = []
            refined_children = []
            for child in node.children:
                child_committed, child_pool, child_refined = visit(child)
                for k in letter_range:
                    committed[k] += child_committed[k]
                pool.extend(child_pool)
                refined_children.append(child_refined)
            members = node.members
            members.sort()
            member_count = len(members)
            member_index = 0
            assigned = []
            for lo, hi, weight in reversed(node.segments):
                while member_index < member_count and members[member_index][0] <= hi:
                    pool.append(members[member_index][1])
                    member_index += 1
                if weight * largest + tolerance < 1.0:
                    continue
                for k in letter_range:
                    # ⌊w·p + tol·max(1, w·p)⌋; int() floors the positive sum.
                    value = weight * scales[k]
                    if value > 1.0:
                        quota = int(value + tolerance * value)
                    else:
                        quota = int(value + tolerance)
                    need = quota - committed[k]
                    if need <= 0:
                        continue
                    if need > len(pool):
                        raise ConstructionError(
                            "z-estimation invariant violated at position "
                            f"{position}: need {need} tokens, have {len(pool)}"
                        )
                    code = positive[k]
                    for _ in range(need):
                        token = pool.pop()
                        letters[token] = code
                        depths[token] = lo
                        assigned.append((token, code, lo))
                    committed[k] = quota
            if member_index != member_count:
                raise ConstructionError(
                    "z-estimation invariant violated: member anchored below "
                    f"the node's segments at position {position}"
                )
            # Refined groups: the letter set is filled from this group's own
            # assignments in token order, then each child's refined letters
            # (sibling order is load-bearing: it is the next pool order).
            own: dict[int, list] = {}
            assigned.sort()
            for token, code, lo in assigned:
                own.setdefault(code, []).append((lo, token))
            codes = set(own)
            for child_refined in refined_children:
                codes.update(child_refined)
            refined = {}
            for code in codes:
                scale = values[code]
                segments = [
                    (lo, hi, scaled)
                    for lo, hi, weight in node.segments
                    if (scaled := weight * scale) >= keep
                ]
                if not segments:
                    # The whole subtree weight dropped below 1; no token can
                    # be alive here (the quotas were 0), so nothing to keep.
                    continue
                children = [
                    child_refined[code]
                    for child_refined in refined_children
                    if code in child_refined
                ]
                refined[code] = _normalise(_Node(segments, own.get(code, []), children))
            return committed, pool, refined

        _, _, refined = visit(self.root)
        # Levels below a token's new depth die here: their property ends at
        # the previous position.
        ends = self.ends
        alive_from = self.alive_from
        dead = []
        for token in range(width):
            depth = depths[token]
            if depth > alive_from[token]:
                ends[token, alive_from[token] : depth] = position - 1
                alive_from[token] = depth
            if depth > position:
                dead.append((depth, token))
        self.root = _normalise(
            _Node([(position + 1, position + 1, self.z)], dead, list(refined.values()))
        )
        return letters


def _build(source: WeightedString, z: float, checkpoint_every: int | None) -> ZEstimation:
    estimator = _Estimator(source, z, checkpoint_every)
    strings = np.empty((estimator.width, estimator.length), dtype=np.int64)
    estimator.scan(strings, 0)
    return ZEstimation(
        strings, estimator.ends, estimator.z, source.alphabet, estimator.checkpoints
    )


def build_z_estimation(
    source: WeightedString,
    z: float,
    *,
    checkpoint_every: int | None = None,
) -> ZEstimation:
    """Build a z-estimation of ``source`` for the threshold ``1/z`` (Theorem 2).

    The returned family satisfies the exact Count property stated in the
    module docstring; in particular a pattern has a z-valid occurrence at
    ``i`` in ``source`` if and only if it occurs at ``i``, respecting the
    property, in at least one string of the family.

    ``checkpoint_every`` sets the construction-state snapshot cadence ``K``
    (default: :data:`DEFAULT_CHECKPOINT_EVERY`; 0 disables checkpoints).
    Checkpoints never change the family — they only let later point updates
    resume construction through :func:`resume_z_estimation`.
    """
    with stage_timer("estimation"):
        return _build(source, z, checkpoint_every)


def resume_z_estimation(
    old: ZEstimation,
    source: WeightedString,
    z: float,
    positions,
) -> tuple[ZEstimation, dict]:
    """Re-derive the z-estimation after point updates at ``positions``.

    ``source`` must already carry the new rows; ``old`` is the estimation of
    the pre-update string.  The construction is resumed from the last
    checkpoint at-or-before the first changed position: the (unchanged)
    string prefix and already-finalised property ends are copied from
    ``old``, and the left-to-right scan replays forward from the checkpoint.
    At every checkpoint boundary past the last changed position the replayed
    construction state is compared bit-exactly against ``old``'s snapshot; on the
    first match the remaining suffix (strings, open property ends and the
    later checkpoints) is spliced from ``old`` wholesale — the update's
    ripple has provably died out, everything downstream is identical.

    Returns ``(estimation, info)`` with ``info`` describing the replay
    (``{"estimation_replay", "replayed_from", "converged_at", ...}``).  The
    result is always bit-identical to ``build_z_estimation(source, z)`` with
    the same cadence; when ``old`` carries no usable checkpoint (old stores,
    an update in the first window, cadence 0) it *is* that full build.
    """
    with stage_timer("estimation"):
        changed = sorted({int(p) for p in positions})
        n = len(source)
        width = int(math.floor(validate_threshold(z) + RELATIVE_TOLERANCE))
        checkpoints = list(getattr(old, "checkpoints", ()) or ())
        usable = (
            changed
            and checkpoints
            and old.z == float(z)
            and old.length == n
            and old.width == width
            and all(0 <= p < n for p in changed)
        )
        candidates = [c for c in checkpoints if c.position <= changed[0]] if usable else []
        if not candidates:
            return _build(source, z, None), {"estimation_replay": "full"}
        start = candidates[-1]
        resume_at = int(start.position)
        # Checkpoint positions are multiples of the capture cadence.
        every = int(checkpoints[0].position)
        by_position = {int(c.position): c for c in checkpoints}
        last_changed = changed[-1]

        estimator = _Estimator(source, z, every)
        estimator.alive_from = start.alive_from.tolist()
        estimator.root = restore_group_tree(start.tree, _Node)
        estimator.checkpoints = [c for c in checkpoints if c.position <= resume_at]
        strings = np.empty((width, n), dtype=np.int64)
        strings[:, :resume_at] = old.strings[:, :resume_at]
        ends = estimator.ends
        levels = np.arange(n, dtype=np.int64)[None, :]
        finalised = levels < start.alive_from[:, None]
        ends[finalised] = old.ends[finalised]

        def converged(snapshot: EstimationCheckpoint) -> bool:
            reference = by_position.get(snapshot.position)
            return (
                snapshot.position > last_changed
                and reference is not None
                and snapshot.matches(reference)
            )

        converged_at = estimator.scan(strings, resume_at, converged)
        if converged_at is not None:
            # Identical state at the boundary + identical suffix rows:
            # everything the scan would produce from here on matches
            # ``old`` bit for bit.
            strings[:, converged_at:] = old.strings[:, converged_at:]
            open_levels = levels >= by_position[converged_at].alive_from[:, None]
            ends[open_levels] = old.ends[open_levels]
            estimator.checkpoints.extend(c for c in checkpoints if c.position >= converged_at)
        estimation = ZEstimation(strings, ends, z, source.alphabet, estimator.checkpoints)
    info = {
        "estimation_replay": "checkpoint",
        "replayed_from": resume_at,
        "converged_at": converged_at,
        "replayed_positions": (converged_at if converged_at is not None else n)
        - resume_at,
    }
    return estimation, info
