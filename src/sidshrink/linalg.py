"""Structured-matrix helpers: block Hankel builders, Toeplitz selectors,
symmetric matrix roots, pseudo-determinants, the Frobenius norm, and the
info check of direct LAPACK calls.

Vectorisation convention: vec() stacks columns (column-major), matching the
selector matrices built here. All functions are pure and never mutate their
arguments.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError

__all__ = [
    "SelectorPair",
    "checked",
    "vec",
    "build_hankel",
    "hankel_windows",
    "build_selectors",
    "frobenius",
    "psd_sqrt",
    "pseudo_det",
    "toeplitz_project",
    "toeplitz_from_col",
]

_PD_REL = 1e-12     # psd_sqrt inverts only above this share of the top eigenvalue
_RANK_REL = 1e-10   # pseudo_det keeps singular values above this share of s_max
_TINY = np.finfo(float).tiny


def checked(result: tuple, what: str) -> np.ndarray:
    """The first array of a LAPACK (array, ..., info) tuple; a nonzero info
    raises NumericalError naming the failed step."""
    if result[-1] != 0:
        raise NumericalError(f"{what} (LAPACK info {result[-1]})")
    return result[0]


def vec(m: np.ndarray) -> np.ndarray:
    """Column-major vectorisation of a matrix."""
    return np.asarray(m, dtype=float).ravel(order="F")


def hankel_windows(signal: np.ndarray, cols: int) -> np.ndarray:
    """Read-only (T - cols + 1, d, cols) view w of a (T, d) signal with
    w[m, c, l] = signal[m + l, c]: block rows start..start+k-1 of a Hankel
    matrix with `cols` columns are w[start:start + k], each block's d rows
    stacked. Formed by as_strided, without sliding_window_view's argument
    handling; 1 <= cols <= T."""
    t, d = signal.shape
    if not 1 <= cols <= t:
        raise ValueError(f"{cols} columns do not fit a {t}-sample signal")
    step, channel = signal.strides
    return np.lib.stride_tricks.as_strided(
        signal, (t - cols + 1, d, cols), (step, channel, step), writeable=False)


def build_hankel(signal, block_rows: int, cols: int, start: int = 0) -> np.ndarray:
    """Block Hankel matrix of a vector-valued signal.

    Parameters
    ----------
    signal : array_like, shape (T,) or (T, d)
        Time series; each row is one sample.
    block_rows : int
        Number of block rows (each contributes d scalar rows).
    cols : int
        Number of columns.
    start : int
        Index of the sample placed in the top-left block.

    Block (k, l) equals signal[start + k + l], so every anti-diagonal of
    blocks is constant. The result is a C-contiguous copy of
    hankel_windows(signal, cols)[start:start + block_rows].
    """
    s = np.asarray(signal, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    if block_rows < 1 or cols < 1:
        raise ValueError("block_rows and cols must be positive")
    t = s.shape[0]
    need = start + block_rows + cols - 1
    if start < 0 or t < need:
        raise DataError(
            f"signal too short: need {need} samples from index {start}, have {t}"
        )
    out = np.empty((block_rows * s.shape[1], cols))
    out.reshape(block_rows, s.shape[1], cols)[...] = \
        hankel_windows(s, cols)[start:start + block_rows]
    return out


@dataclass(frozen=True)
class SelectorPair:
    """0/1 structural maps for an i x i lower-triangular Toeplitz matrix and
    an i x n scalar Hankel matrix.

    b_t (i^2 x i): vec(G) = b_t @ last_row(G), with vec column-major.
    b_w (i*n x (i+n-1)): vec(H) = b_w @ e, where H[k, l] = e[k + l].
    """

    b_t: np.ndarray
    b_w: np.ndarray
    i: int
    n: int


def build_selectors(i: int, n: int) -> SelectorPair:
    """Build the selector pair (b_t, b_w) for sizes (i, n).

    Rows of b_t corresponding to strictly upper-triangular positions are all
    zero; every row of b_w contains exactly one 1. b_w' b_w is diagonal and
    counts anti-diagonal multiplicities.
    """
    if i < 1 or n < 1:
        raise ValueError("selector sizes must be positive")
    b_t = np.zeros((i * i, i))
    k, l = np.tril_indices(i)
    # entry (k, l) of G holds last_row element i-1-k+l
    b_t[k + l * i, i - 1 - k + l] = 1.0

    b_w = np.zeros((i * n, i + n - 1))
    k, l = np.meshgrid(np.arange(i), np.arange(n), indexing="ij")
    b_w[(k + l * i).ravel(), (k + l).ravel()] = 1.0
    return SelectorPair(b_t=b_t, b_w=b_w, i=i, n=n)


def frobenius(m: np.ndarray) -> float:
    """np.linalg.norm(m) bit for bit (the same dot of the array flattened in
    memory order), without the wrapper's dispatch."""
    flat = m.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def psd_sqrt(m: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Symmetric square root of a positive semidefinite matrix.

    Eigenvalues below zero (rounding noise) are clipped to zero. With
    inverse=True the inverse square root is returned and the matrix must be
    positive definite: a minimum eigenvalue at or below _PD_REL * max(|eig|)
    raises NumericalError.
    """
    a = np.asarray(m, dtype=float)
    a = (a + a.T) / 2.0
    w, v = np.linalg.eigh(a)
    if inverse:
        floor = _PD_REL * max(abs(w[-1]), _TINY)
        if w[0] <= floor:
            raise NumericalError(
                f"matrix not positive definite: min eigenvalue {w[0]:.3e}"
            )
        d = 1.0 / np.sqrt(w)
    else:
        d = np.sqrt(np.clip(w, 0.0, None))
    out = (v * d) @ v.T
    return (out + out.T) / 2.0


def pseudo_det(m: np.ndarray) -> float:
    """Product of singular values above _RANK_REL * s_max (pseudo-determinant).

    The all-zero matrix returns 1.0 (empty product convention).
    """
    a = np.asarray(m, dtype=float)
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 1.0
    keep = s[s > _RANK_REL * s[0]]
    return float(np.prod(keep))


_PAIRWISE_BLOCK = 128   # numpy's pairwise sum splits a longer reduction in two


@functools.lru_cache(maxsize=None)
def _diagonal_terms(n: int) -> tuple[int, np.ndarray]:
    """Flat indices into an n x n matrix followed by one -0.0 slot (index
    n*n). Row d of the n x (width + 8) gather lays out the d-th
    subdiagonal, of length L = n - d: its leading L - L % 8 terms in
    columns 0..width-1 and its L % 8 trailing terms from column width + 1
    on. Every other entry reads the -0.0 slot; column width is where the
    leading terms' sum goes."""
    width = 8 * -(-n // 8)
    index = np.full((n, width + 8), n * n)
    for d in range(n):
        terms = np.arange(d * n, n * n, n + 1)    # (d + k, k) for k < n - d
        lead = terms.size - terms.size % 8
        index[d, :lead] = terms[:lead]
        index[d, width + 1:width + 1 + terms.size - lead] = terms[lead:]
    index.setflags(write=False)     # shared by every call with this n
    return width, index


def toeplitz_project(m: np.ndarray) -> np.ndarray:
    """Orthogonal (Frobenius) projection onto lower-triangular Toeplitz
    matrices.

    The k-th subdiagonal of the result is the arithmetic mean of the k-th
    subdiagonal of m; everything above the diagonal is zeroed. For matrices
    that already have the structure this is the identity.

    Each subdiagonal sum has the bits of np.add.reduce(m.diagonal(-k)), a
    reordered sum (one bincount over k - l) having flipped the
    effective-rank order of 5 of 300 cva benchmark runs. For L <= 128
    terms that reduce is numpy's pairwise sum without recursion: 8
    accumulators over the leading L - L % 8 terms, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the other
    terms added in sequence, all onto an initial 0.0. So for n <= 128 one
    reduce over the rows of a gather of every subdiagonal's leading terms,
    padded with -0.0 (x + -0.0 == x for every x, signed zeros and NaN
    payloads included), and a running sum over its trailing terms give
    the same bits. A longer row would make numpy split it in two, so
    larger n reduce each subdiagonal on its own.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("toeplitz_project expects a square matrix")
    n = a.shape[0]
    if n > _PAIRWISE_BLOCK:
        sums = np.array([np.add.reduce(a.diagonal(-d)) for d in range(n)])
    else:
        width, index = _diagonal_terms(n)
        flat = np.empty(n * n + 1)
        flat[:-1].reshape(n, n)[...] = a
        flat[-1] = -0.0
        terms = flat.take(index)
        np.add.reduce(terms[:, :width], axis=1, out=terms[:, width])
        sums = terms[:, width:].cumsum(axis=1)[:, -1]
    return toeplitz_from_col(sums / np.arange(n, 0, -1))


@functools.lru_cache(maxsize=None)
def _toeplitz_index(n: int) -> np.ndarray:
    """Index into a first column of length n followed by a zero: entry
    (k, l) reads k - l on and below the diagonal, the zero above it."""
    k, l = np.indices((n, n))
    index = np.where(k >= l, k - l, n)
    index.setflags(write=False)     # shared by every call with this n
    return index


def toeplitz_from_col(col: np.ndarray) -> np.ndarray:
    """Lower-triangular Toeplitz matrix with the given first column."""
    c = np.asarray(col, dtype=float)
    n = c.shape[0]
    padded = np.zeros(n + 1)
    padded[:n] = c
    return padded.take(_toeplitz_index(n))
