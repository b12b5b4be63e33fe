"""Legendre machinery for polynomial-projection state memory.

The working basis is the shifted, normalized Legendre family on the unit
window, phi_n(s) = sqrt(2n+1) * P_n(2s - 1) for s in [0, 1], orthonormal under
the plain Lebesgue measure.  On top of it sit the translated-measure state
matrices (full sliding-window form and two diagonal approximations) and the
discretization rules: zero-order hold for the transition, forward Euler (or
exact hold, for error studies) for the input map.  Only the full-matrix
``legt_full`` transition needs scipy's matrix exponential, imported when it is
first discretized; the diagonal variants, the default among them, run on
numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VARIANTS = ("legt_full", "legs_diag", "diag_neg1")


def legendre_eval(n: int, x) -> np.ndarray:
    """Canonical P_n(x) via the three-term recurrence (P_n(1) = 1)."""
    if n < 0:
        raise ValueError("order must be >= 0")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev
    p = x.copy()
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
    return p


class LegendreBasis:
    """Orthonormal shifted Legendre basis with Gauss quadrature on [0, 1].

    ``num_nodes`` Gauss-Legendre nodes integrate polynomials up to degree
    2*num_nodes - 1 exactly.
    """

    def __init__(self, order: int, num_nodes: int):
        if order < 1:
            raise ValueError("basis order must be >= 1")
        x, w = np.polynomial.legendre.leggauss(num_nodes)
        self.nodes = 0.5 * (x + 1.0)
        self.weights = 0.5 * w
        # (order, num_nodes) matrix of basis values at the quadrature nodes
        self.phi_at_nodes = np.stack([self.phi(n, self.nodes) for n in range(order)])

    def phi(self, n: int, s) -> np.ndarray:
        """phi_n(s) = sqrt(2n+1) P_n(2s - 1)."""
        return math.sqrt(2 * n + 1) * legendre_eval(n, 2.0 * np.asarray(s, dtype=float) - 1.0)


def piecewise_projection_error(f, order: int, refinement: int) -> float:
    """L2 error of projecting f onto piecewise degree-<order polynomials.

    [0, 1] is split into 2**refinement equal cells; on each the projection is
    taken against the local orthonormal basis, and the squared residual is
    integrated with the same dense quadrature (64 Gauss nodes per cell).
    """
    basis = LegendreBasis(order, num_nodes=64)
    cells = 2 ** refinement
    width = 1.0 / cells
    err2 = 0.0
    for c in range(cells):
        lo = c * width
        x = lo + width * basis.nodes
        vals = np.asarray(f(x), dtype=float)
        coeffs = basis.phi_at_nodes @ (basis.weights * vals)
        resid = vals - coeffs @ basis.phi_at_nodes
        err2 += width * float(np.sum(basis.weights * resid**2))
    return math.sqrt(err2)


def approximation_error_bound(order: int, refinement: int, sup_deriv: float) -> float:
    """2^{-r N} * 2 / (4^N N!) * sup|f^(N)| for order N and refinement r."""
    n = order
    return 2.0 ** (-refinement * n) * 2.0 / (4.0**n * math.factorial(n)) * sup_deriv


# ---------------------------------------------------------------------------
# translated-measure state matrices


def legt_full_matrix(n: int) -> np.ndarray:
    """Full sliding-window matrix: A_{nk} = -s_n s_k (1 if n>=k else (-1)^{n-k})."""
    s = np.sqrt(2.0 * np.arange(n) + 1.0)
    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    signs = np.where(rows >= cols, 1.0, (-1.0) ** (cols - rows))
    return -np.outer(s, s) * signs


def build_hippo_legs_diag(n: int) -> np.ndarray:
    """Diagonal scale-invariant approximation: diag{-1, -2, ..., -n}."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return -np.arange(1.0, n + 1.0)


def build_diag_neg1(n: int) -> np.ndarray:
    """Diagonal unit-decay approximation of the sliding-window matrix."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return -np.ones(n)


@dataclass(frozen=True)
class SsmParams:
    """Continuous-time parameters: transition a (diagonal vector or full
    matrix), input map b, per-step measure window delta, order n."""

    a: np.ndarray
    b: np.ndarray
    delta: float
    n: int
    variant: str

    @property
    def is_diagonal(self) -> bool:
        return self.a.ndim == 1


@dataclass(frozen=True)
class DiscretizedSsm:
    a_bar: np.ndarray
    b_bar: np.ndarray


def make_ssm_params(variant: str, n: int, delta: float) -> SsmParams:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if delta <= 0:
        raise ValueError("delta must be positive")
    b = np.sqrt(2.0 * np.arange(n) + 1.0)
    if variant == "legt_full":
        a = legt_full_matrix(n)
    elif variant == "legs_diag":
        a = build_hippo_legs_diag(n)
    else:
        a = build_diag_neg1(n)
    return SsmParams(a=a, b=b, delta=float(delta), n=n, variant=variant)


def discretize(params: SsmParams, b_method: str = "euler") -> DiscretizedSsm:
    """Zero-order hold for the transition; Euler or exact hold for the input.

    a_bar = exp(delta * a) (elementwise for diagonal a, matrix exponential for
    full a).  b_bar is delta * b under ``euler``; under ``zoh`` it is the exact
    constant-input solution a^{-1}(exp(delta a) - I) b.
    """
    if params.delta <= 0:
        raise ValueError("delta must be positive")
    if b_method not in ("euler", "zoh"):
        raise ValueError("b_method must be 'euler' or 'zoh'")
    d = params.delta
    if params.is_diagonal:
        a_bar = np.exp(d * params.a)
    else:
        from scipy.linalg import expm

        a_bar = expm(d * params.a)
    if b_method == "euler":
        b_bar = d * params.b
    elif params.is_diagonal:
        b_bar = _zoh_input_factor(params.a, d) * params.b
    else:
        b_bar = np.linalg.solve(params.a, (a_bar - np.eye(params.n)) @ params.b)
    return DiscretizedSsm(a_bar=a_bar, b_bar=b_bar)


def _zoh_input_factor(a: np.ndarray, delta: float) -> np.ndarray:
    # (exp(delta a) - 1) / a, with the delta limit at a = 0
    out = np.full_like(a, delta, dtype=float)
    nz = a != 0
    out[nz] = np.expm1(delta * a[nz]) / a[nz]
    return out
