"""Hierarchical projection between nested piecewise-polynomial spaces.

Doubling the approximation window maps two neighbouring coefficient vectors
(order-N Legendre expansions on adjacent unit cells) to one coarse vector plus
one detail vector living in the orthogonal complement.  The analysis filters
come from expanding each coarse basis function in the two half-window bases by
Gauss quadrature; one Householder QR completes those rows to an orthogonal
2N x 2N matrix, so synthesis is the transpose and the round trip is lossless
to rounding at every order.  The bank is a pure function of the order, so
``build_filters`` builds each order's bank once and returns it read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ShapeMismatchError
from .legendre import LegendreBasis


@dataclass(frozen=True)
class WaveletFilters:
    """Analysis blocks; [[h1, h2], [g1, g2]] is orthogonal, so synthesis
    applies their transposes."""

    h1: np.ndarray
    h2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray

    @property
    def order(self) -> int:
        return self.h1.shape[0]


@dataclass(frozen=True)
class Pyramid:
    """Detail sequences per level (finest first) plus the final coarse part."""

    details: list
    coarse: np.ndarray


@cache
def build_filters(n: int) -> WaveletFilters:
    """Orthogonal filter bank of order n, built once per order; its arrays
    are read-only, since every caller shares them.

    h1[i, j] = <phi_i, left-half phi_j> and h2 likewise for the right half;
    the g rows are the orthogonal complement of [h1 h2] from the QR of
    [h1 h2]^T followed by the first n unit columns, each signed so that its
    first entry above 1e-10 in magnitude is positive.  At n = 1 this reduces to
    the Haar pair (1/sqrt2, 1/sqrt2) / (1/sqrt2, -1/sqrt2).
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    basis = LegendreBasis(n, num_nodes=max(2 * n, 8))
    u = basis.nodes
    w = basis.weights
    phi_u = basis.phi_at_nodes  # (n, q)
    phi_left = np.stack([basis.phi(i, u / 2.0) for i in range(n)])
    phi_right = np.stack([basis.phi(i, (u + 1.0) / 2.0) for i in range(n)])
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    h1 = inv_sqrt2 * phi_left @ (w[:, None] * phi_u.T)
    h2 = inv_sqrt2 * phi_right @ (w[:, None] * phi_u.T)

    # the last n columns of Q span the orthogonal complement of the coarse rows
    h = np.concatenate([h1, h2], axis=1)
    q, _ = np.linalg.qr(np.concatenate([h.T, np.eye(2 * n, n)], axis=1))
    g = q[:, n:].T
    for i in range(n):
        lead = g[i, np.abs(g[i]) > 1e-10]
        if lead.size and lead[0] < 0:
            g[i] = -g[i]
    g1, g2 = g[:, :n], g[:, n:]
    for arr in (h1, h2, g1, g2):
        arr.flags.writeable = False
    return WaveletFilters(h1=h1, h2=h2, g1=g1, g2=g2)


def _apply(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,...j->...i", mat, x)


def up_project(x_fine: np.ndarray, filters: WaveletFilters):
    """Map a length-L coefficient sequence to (coarse L/2, detail L/2).  An
    odd L, or a trailing axis other than the filter order, raises
    ShapeMismatchError, as ``decompose`` does for a length it cannot split."""
    x_fine = np.asarray(x_fine, dtype=float)
    if x_fine.shape[0] % 2 != 0:
        raise ShapeMismatchError("up projection needs an even-length sequence")
    if x_fine.shape[-1] != filters.order:
        raise ShapeMismatchError("trailing axis must match the filter order")
    left = x_fine[0::2]
    right = x_fine[1::2]
    coarse = _apply(filters.h1, left) + _apply(filters.h2, right)
    detail = _apply(filters.g1, left) + _apply(filters.g2, right)
    return coarse, detail


def down_project(x_coarse: np.ndarray, s_detail: np.ndarray, filters: WaveletFilters) -> np.ndarray:
    """Exact left-inverse of up_project."""
    x_coarse = np.asarray(x_coarse, dtype=float)
    s_detail = np.asarray(s_detail, dtype=float)
    if x_coarse.shape != s_detail.shape:
        raise ShapeMismatchError("coarse and detail parts must have equal shapes")
    left = _apply(filters.h1.T, x_coarse) + _apply(filters.g1.T, s_detail)
    right = _apply(filters.h2.T, x_coarse) + _apply(filters.g2.T, s_detail)
    out = np.empty((2 * x_coarse.shape[0],) + x_coarse.shape[1:])
    out[0::2] = left
    out[1::2] = right
    return out


def decompose(x: np.ndarray, filters: WaveletFilters, levels: int) -> Pyramid:
    """Repeated up projection; the pyramid keeps every level's details.  Each
    level splits disjoint pairs, so any positive multiple of 2^levels works."""
    x = np.asarray(x, dtype=float)
    length = x.shape[0]
    if length < 1:
        raise ShapeMismatchError("sequence must not be empty")
    if levels < 0 or 2**levels > length:
        raise ValueError("levels must satisfy 0 <= levels <= log2(len)")
    if length % 2**levels:
        raise ShapeMismatchError(f"sequence length {length} is not a multiple of 2^{levels}")
    details = []
    coarse = x
    for _ in range(levels):
        coarse, detail = up_project(coarse, filters)
        details.append(detail)
    return Pyramid(details=details, coarse=coarse)


def reconstruct(pyramid: Pyramid, filters: WaveletFilters) -> np.ndarray:
    x = pyramid.coarse
    for detail in reversed(pyramid.details):
        x = down_project(x, detail, filters)
    return x
