"""Linear-recurrence evaluation: sequential and Blelloch tree.

Both compute x_k = a_k * x_{k-1} + bu_k.  The tree scan runs the binary
operator

    (a_i, b_i) . (a_j, b_j) = (a_j * a_i, a_j * b_i + b_j)

over the fixed up-sweep/down-sweep schedule ``tree_schedule`` of a virtual
power-of-two grid, one level at a time: the input fills the grid's last
positions, and no identity elements are materialized for the rest.  The
down sweep starts with the identity composition (identity at virtual
position -1 into position 0), which is a no-op.
"""

from __future__ import annotations

import itertools
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
    # one tree-scan composition of a two-element input: element 0 into 1
    a = [np.asarray(q.a, dtype=float)[None] for q in (qi, qj)]
    b = [np.asarray(q.b, dtype=float)[None] for q in (qi, qj)]
    try:
        a_new, b_new = _compose(a, b, 0, 1, qi.matrix)
    except ValueError as exc:
        raise ShapeMismatchError(str(exc)) from exc
    return ScanElement(a=a_new[0], b=b_new[0], matrix=qi.matrix)


def _compose(a, b, src, dst, matrix: bool):
    """Element ``src`` composed into the later element ``dst``: (a[dst] *
    a[src], a[dst] * b[src] + b[dst]).  Indexing ``a`` and ``b`` gives stacks
    of elements along axis 0; in matrix mode a transition acts on the last
    axis of the drive."""
    if matrix:
        return (np.einsum("lij,ljk->lik", a[dst], a[src]),
                np.einsum("lij,l...j->l...i", a[dst], b[src]) + b[dst])
    return a[dst] * a[src], a[dst] * b[src] + b[dst]


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


def _level_plan(length: int):
    """tree_schedule of the padded grid grouped by level as (dst, half) for
    vectorized execution, indexed into the unpadded input.

    A composition whose source lies in the first ``pad`` grid positions
    (identity elements) is an exact no-op and is left out, as is the no-op
    identity composition, so every remaining one reads and writes input
    positions only.  An empty input has an empty plan.
    """
    lp = 1 << (length - 1).bit_length()
    pad = lp - length
    # a level is a run of pairs with one half-width: consecutive levels
    # differ in it, and the only pair that can join a neighbouring level,
    # the identity pair (-1, 0) when lp is 2 or 4, is always left out
    levels = itertools.groupby(tree_schedule(lp), key=lambda pair: pair[1] - pair[0])
    plan = [(np.array([d for s, d in pairs if s >= pad], dtype=int) - pad, half)
            for half, pairs in levels]
    return [(dst, half) for dst, half in plan if dst.size]


def blelloch_scan(inp: ScanInput) -> np.ndarray:
    """Tree-scheduled scan; equals sequential_scan up to float tolerance.

    The scan runs ``_level_plan`` on the unpadded arrays, which keeps the
    composition count at most 2L - 1 for input length L.
    """
    a, b = inp.a_seq.copy(), inp.bu_seq.copy()
    for dst, half in _level_plan(inp.length):
        a[dst], b[dst] = _compose(a, b, dst - half, dst, inp.matrix)
    return b
