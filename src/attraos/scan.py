"""Linear-recurrence evaluation: sequential and Blelloch tree.

Both compute x_k = a_k * x_{k-1} + bu_k.  The tree scan runs the binary
operator

    (a_i, b_i) . (a_j, b_j) = (a_j * a_i, a_j * b_i + b_j)

over a fixed up-sweep/down-sweep schedule on a virtual power-of-two grid:
the input fills its last positions, and no identity elements are
materialized for the rest.  The down sweep starts with the identity
composition (identity at virtual position -1 into position 0), which is a
no-op.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError


@dataclass(frozen=True)
class ScanElement:
    """One (a, b) operator element; identity is (ones/I, zeros)."""

    a: np.ndarray
    b: np.ndarray
    matrix: bool = False


@dataclass(frozen=True)
class ScanInput:
    """Stacked per-step elements: a_seq (L, ...), bu_seq (L, ...)."""

    a_seq: np.ndarray
    bu_seq: np.ndarray
    matrix: bool = False

    def __post_init__(self):
        a = np.asarray(self.a_seq, dtype=float)
        b = np.asarray(self.bu_seq, dtype=float)
        if a.shape[0] != b.shape[0]:
            raise ShapeMismatchError("a_seq and bu_seq must have equal length")
        object.__setattr__(self, "a_seq", a)
        object.__setattr__(self, "bu_seq", b)

    @property
    def length(self) -> int:
        return self.a_seq.shape[0]


def operator_compose(qi: ScanElement, qj: ScanElement) -> ScanElement:
    """Compose the earlier element qi with the later qj."""
    if qi.matrix != qj.matrix:
        raise ShapeMismatchError("cannot mix matrix and diagonal elements")
    ai, bi = np.asarray(qi.a, dtype=float), np.asarray(qi.b, dtype=float)
    aj, bj = np.asarray(qj.a, dtype=float), np.asarray(qj.b, dtype=float)
    try:
        if qi.matrix:
            a = aj @ ai
            b = aj @ bi + bj
        else:
            a = aj * ai
            b = aj * bi + bj
    except ValueError as exc:
        raise ShapeMismatchError(str(exc)) from exc
    return ScanElement(a=a, b=b, matrix=qi.matrix)


def sequential_scan(inp: ScanInput) -> np.ndarray:
    """x_k = a_k * x_{k-1} + bu_k for k = 1..L from x_0 = 0, O(L) sequential."""
    b = inp.bu_seq
    x = np.zeros_like(b[0])
    out = np.empty_like(b)
    for k in range(inp.length):
        if inp.matrix:
            x = np.einsum("ij,...j->...i", inp.a_seq[k], x) + b[k]
        else:
            x = inp.a_seq[k] * x + b[k]
        out[k] = x
    return out


def _padded_length(length: int) -> int:
    lp = 1
    while lp < length:
        lp *= 2
    return lp


def tree_schedule(l_padded: int) -> list[tuple[int, int]]:
    """Composition order (src, dst) for a power-of-two grid.

    Up sweep merges pairs bottom-up; the down sweep starts with the identity
    composition (-1, 0) and then fills the remaining positions top-down.
    After executing every pair, position i holds the inclusive prefix over
    elements 0..i.
    """
    if l_padded < 1 or (l_padded & (l_padded - 1)) != 0:
        raise ValueError("schedule length must be a positive power of two")
    pairs = []
    levels = l_padded.bit_length() - 1
    for d in range(levels):
        step = 1 << (d + 1)
        half = 1 << d
        for dst in range(step - 1, l_padded, step):
            pairs.append((dst - half, dst))
    pairs.append((-1, 0))
    for d in range(levels - 2, -1, -1):
        step = 1 << (d + 1)
        half = 1 << d
        for dst in range(step + half - 1, l_padded, step):
            pairs.append((dst - half, dst))
    return pairs


def _level_plan(l_padded: int):
    """tree_schedule grouped by level as (dst, half) for vectorized
    execution, without the no-op identity composition."""
    levels = l_padded.bit_length() - 1
    plan = []
    for d in range(levels):
        plan.append((np.arange((2 << d) - 1, l_padded, 2 << d), 1 << d))
    for d in range(levels - 2, -1, -1):
        plan.append((np.arange((3 << d) - 1, l_padded, 2 << d), 1 << d))
    return plan


def _compose_at(a, b, dst, half, matrix: bool):
    src = dst - half
    if matrix:
        a_new = np.einsum("lij,ljk->lik", a[dst], a[src])
        b_new = np.einsum("lij,l...j->l...i", a[dst], b[src]) + b[dst]
    else:
        a_new = a[dst] * a[src]
        b_new = a[dst] * b[src] + b[dst]
    a[dst] = a_new
    b[dst] = b_new


def blelloch_scan(inp: ScanInput) -> np.ndarray:
    """Tree-scheduled scan; equals sequential_scan up to float tolerance.

    A composition whose source lies in the first ``pad`` grid positions
    (identity elements) is an exact no-op and is skipped, so every other one
    reads and writes input positions only: the scan runs on the unpadded
    arrays with grid indices shifted by ``pad``.  This keeps the composition
    count at most 2L - 1 for input length L.
    """
    if inp.length == 0:
        return inp.bu_seq.copy()
    lp = _padded_length(inp.length)
    pad = lp - inp.length
    a, b = inp.a_seq.copy(), inp.bu_seq.copy()
    for dst, half in _level_plan(lp):
        keep = dst[(dst - half) >= pad] - pad
        if keep.size:
            _compose_at(a, b, keep, half, inp.matrix)
    return b


def scan_composition_count(length: int) -> int:
    """Number of operator compositions blelloch_scan performs for length L."""
    if length == 0:
        return 0
    lp = _padded_length(length)
    pad = lp - length
    count = 0
    for dst, half in _level_plan(lp):
        count += int(np.sum((dst - half) >= pad))
    return count
