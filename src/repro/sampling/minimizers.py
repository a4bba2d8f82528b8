"""(ℓ, k)-minimizer schemes (Section 2, Definition 1, Lemma 1).

A minimizer scheme selects, inside every length-ℓ window of a string, the
starting position of the leftmost occurrence of the smallest length-k
substring, according to a fixed order on k-mers.  Two orders are provided:

* ``"lexicographic"`` — plain lexicographic order of k-mers (Example 2);
* ``"random"`` — the order of the k-mers' splitmix64-mixed integer codes,
  which plays the role of the Karp–Rabin-fingerprint order used by the
  paper's implementation and makes the density behave like the random-order
  analysis behind Lemma 1.

The same scheme object is shared by every construction path of the library
(the explicit z-estimation construction, the space-efficient DFS
construction and the query-time leftmost-minimizer computation), so they all
sample exactly the same positions.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..errors import ReproError
from ..strings.karp_rabin import mix64, mix64_array

__all__ = ["MinimizerScheme", "default_k", "sliding_window_argmin"]


def sliding_window_argmin(values: np.ndarray, width: int) -> np.ndarray:
    """Leftmost argmin of every length-``width`` window of ``values``.

    Returns an array ``a`` of length ``len(values) - width + 1`` where
    ``a[i]`` is the smallest index attaining ``min(values[i : i + width])``.
    Runs in O(n) with pure array operations: values are cut into blocks of
    ``width`` entries, running argminima are accumulated towards the right
    (block prefixes) and towards the left (block suffixes), and every window
    is the union of one block suffix and one block prefix.
    """
    values = np.asarray(values)
    n = len(values)
    if width <= 0:
        raise ReproError("window width must be positive")
    if n < width:
        return np.empty(0, dtype=np.int64)
    if width == 1:
        return np.arange(n, dtype=np.int64)
    if np.issubdtype(values.dtype, np.integer):
        sentinel = np.iinfo(values.dtype).max
    else:
        sentinel = np.inf
    blocks = -(-n // width)
    padded = np.full(blocks * width, sentinel, dtype=values.dtype)
    padded[:n] = values
    grid = padded.reshape(blocks, width)
    index_grid = np.arange(blocks * width, dtype=np.int64).reshape(blocks, width)

    # Prefix scan: leftmost index of the running minimum of each block prefix.
    # A strictly smaller value starts a new argmin; ties keep the older
    # (smaller) index, so accumulating the maximum of "event" indices yields
    # the most recent strict improvement.
    prefix_min = np.minimum.accumulate(grid, axis=1)
    improved = np.empty(grid.shape, dtype=bool)
    improved[:, 0] = True
    improved[:, 1:] = grid[:, 1:] < prefix_min[:, :-1]
    prefix_argmin = np.maximum.accumulate(np.where(improved, index_grid, 0), axis=1)

    # Suffix scan (on reversed blocks): an equal value at an earlier original
    # index also improves the leftmost argmin, hence "<=", and the most
    # recent improvement carries the smallest original index.
    reversed_grid = grid[:, ::-1]
    suffix_min = np.minimum.accumulate(reversed_grid, axis=1)
    improved[:, 0] = True
    improved[:, 1:] = reversed_grid[:, 1:] <= suffix_min[:, :-1]
    far = np.iinfo(np.int64).max
    suffix_argmin = np.minimum.accumulate(
        np.where(improved, index_grid[:, ::-1], far), axis=1
    )[:, ::-1]
    suffix_min = suffix_min[:, ::-1]

    starts = np.arange(n - width + 1, dtype=np.int64)
    ends = starts + width - 1
    left_value = suffix_min[starts // width, starts % width]
    left_index = suffix_argmin[starts // width, starts % width]
    right_value = prefix_min[ends // width, ends % width]
    right_index = prefix_argmin[ends // width, ends % width]
    # The block suffix covers the earlier part of the window, so on ties it
    # holds the leftmost occurrence of the window minimum.
    return np.where(left_value <= right_value, left_index, right_index)


def default_k(ell: int, sigma: int) -> int:
    """The default k-mer length for a window length ℓ and alphabet size σ.

    Lemma 1 requires ``k ≥ log_σ ℓ + c`` for the expected density to be
    ``O(1/ℓ)``; we use ``⌈log_σ ℓ⌉ + 2`` capped to ℓ and to what fits in a
    64-bit integer code.
    """
    if ell <= 0:
        raise ReproError("the window length ell must be positive")
    sigma = max(2, sigma)
    k = int(math.ceil(math.log(max(ell, 2), sigma))) + 2
    k = max(2, min(k, ell))
    # Keep sigma**k comfortably inside 63 bits so integer codes are exact.
    while sigma ** k >= (1 << 62) and k > 1:
        k -= 1
    return k


class MinimizerScheme:
    """An (ℓ, k)-minimizer scheme over an integer alphabet.

    Parameters
    ----------
    ell:
        Window length (the paper's ℓ — also the minimum query length).
    sigma:
        Alphabet size (codes must lie in ``[0, sigma)``).
    k:
        k-mer length; defaults to :func:`default_k`.
    order:
        ``"random"`` (default, Karp–Rabin-style) or ``"lexicographic"``.
    """

    __slots__ = ("ell", "sigma", "k", "order")

    def __init__(
        self,
        ell: int,
        sigma: int,
        k: int | None = None,
        order: str = "random",
    ) -> None:
        if ell <= 0:
            raise ReproError("ell must be positive")
        if sigma <= 0:
            raise ReproError("sigma must be positive")
        if order not in {"random", "lexicographic"}:
            raise ReproError(f"unknown minimizer order {order!r}")
        self.ell = int(ell)
        self.sigma = int(sigma)
        self.k = int(k) if k is not None else default_k(ell, sigma)
        if not 1 <= self.k <= self.ell:
            raise ReproError("k must satisfy 1 <= k <= ell")
        self.order = order

    # -- k-mer codes and their order -------------------------------------------------
    @property
    def window_kmers(self) -> int:
        """Number of k-mer starting offsets inside one window (ℓ - k + 1)."""
        return self.ell - self.k + 1

    def kmer_codes(self, codes: Sequence[int]) -> np.ndarray:
        """Integer codes of all k-mers of ``codes`` (length ``n - k + 1``).

        Accepts one string (1D) or a batch of equal-length strings (2D, one
        row per string); k-mers are always read along the last axis.
        """
        codes = np.asarray(codes, dtype=np.int64)
        n = codes.shape[-1]
        if n < self.k:
            return np.empty(codes.shape[:-1] + (0,), dtype=np.int64)
        result = np.zeros(codes.shape[:-1] + (n - self.k + 1,), dtype=np.int64)
        for offset in range(self.k):
            result = result * self.sigma + codes[..., offset : n - self.k + 1 + offset]
        return result

    def order_values(self, kmer_codes: np.ndarray) -> np.ndarray:
        """The comparison keys of k-mer codes under the scheme's order."""
        if self.order == "lexicographic":
            return np.asarray(kmer_codes, dtype=np.uint64)
        return mix64_array(np.asarray(kmer_codes, dtype=np.uint64))

    def order_value(self, kmer_code: int) -> int:
        """Scalar version of :meth:`order_values` (used by the DFS construction)."""
        if self.order == "lexicographic":
            return int(kmer_code)
        return mix64(int(kmer_code))

    # -- query patterns ---------------------------------------------------------------
    def leftmost_pattern_minimizers(self, patterns: Sequence[Sequence[int]]) -> np.ndarray:
        """Minimizer offset of each pattern's first length-ℓ window.

        This is the function ``f`` of the paper, ``f(P[1..ℓ])``: the leftmost
        occurrence of the smallest k-mer of the window.  Only the first ℓ
        letters of each pattern matter, so the batch is packed into a
        ``(B × ℓ)`` matrix and all offsets come from a single argmin.  A
        pattern shorter than ℓ raises :class:`~repro.errors.ReproError`.
        """
        if len(patterns) == 0:
            return np.empty(0, dtype=np.int64)
        windows = np.empty((len(patterns), self.ell), dtype=np.int64)
        for row, pattern in enumerate(patterns):
            if len(pattern) < self.ell:
                raise ReproError(
                    f"pattern of length {len(pattern)} is shorter than ell={self.ell}"
                )
            windows[row] = np.asarray(pattern[: self.ell], dtype=np.int64)
        values = self.order_values(self.kmer_codes(windows))
        return np.argmin(values, axis=1).astype(np.int64)

    # -- whole strings ------------------------------------------------------------------
    def minimizer_positions(
        self,
        codes: Sequence[int],
        valid_window: Sequence[bool] | None = None,
    ) -> list[int]:
        """Selected (minimizer) positions over all windows of ``codes``.

        ``valid_window[i]`` restricts the computation to windows starting at
        ``i`` for which it is true — this is how minimizers "respecting the
        property" of a z-estimation string are computed: a window is only
        considered when it lies inside the property of its start.
        Returns the sorted list of distinct selected positions.
        """
        codes = np.asarray(codes, dtype=np.int64)
        n = len(codes)
        if n < self.ell:
            return []
        values = self.order_values(self.kmer_codes(codes))
        window_count = n - self.ell + 1
        # Leftmost argmin of every window of ℓ - k + 1 consecutive k-mers;
        # window i covers k-mer starts [i, i + ℓ - k], i.e. text window
        # [i, i + ℓ).
        window_minima = sliding_window_argmin(values, self.window_kmers)
        window_minima = window_minima[:window_count]
        if valid_window is not None:
            mask = np.asarray(valid_window, dtype=bool)[:window_count]
            window_minima = window_minima[mask]
        return [int(position) for position in np.unique(window_minima)]

    def density(self, codes: Sequence[int]) -> float:
        """Specific density of the scheme on ``codes`` (Definition 1)."""
        codes = np.asarray(codes, dtype=np.int64)
        if len(codes) == 0:
            return 0.0
        return len(self.minimizer_positions(codes)) / len(codes)

    def expected_density_bound(self) -> float:
        """The O(1/ℓ)-style bound of Lemma 1 (2 / (ℓ - k + 2)) for reference."""
        return 2.0 / (self.ell - self.k + 2)

    def __repr__(self) -> str:
        return (
            f"MinimizerScheme(ell={self.ell}, k={self.k}, sigma={self.sigma}, "
            f"order={self.order!r})"
        )
