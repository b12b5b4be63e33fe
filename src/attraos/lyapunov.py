"""Maximal Lyapunov exponent from nearest-neighbor divergence.

Rosenstein-style estimate: embed the series, pair every reference point with
its nearest neighbor outside a temporal exclusion window, track the mean log
separation over a horizon, and read the exponent off the least-squares slope
of the early part of that curve.  No Jacobian needed, which is why it works on
observed data; reported units are per sample step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .embedding import EmbeddingParams, _as_2d, _check_series, delay_embed
from .errors import DegenerateSeriesError, NonFiniteError, TooShortError

_QUERY_BLOCK = 2048  # reference points per neighbour query
_FIRST_K = 8  # neighbours every point is queried for first


@dataclass(frozen=True)
class LyapunovEstimate:
    mle: float
    divergence_curve: np.ndarray
    fit_range: tuple


def estimate_mle(
    series,
    params: EmbeddingParams,
    horizon: int = 200,
    theiler: int | None = None,
    fit_range: tuple | None = None,
) -> LyapunovEstimate:
    """Mean log-divergence curve and its slope over ``fit_range``.

    ``theiler`` defaults to m * tau, and a negative one raises ValueError;
    ``fit_range`` (start, end) defaults to (1, max(3, horizon // 2)), so a
    horizon below 3 needs an explicit range (a fit needs two steps).  Pairs
    whose initial separation is exactly zero carry no direction information
    and are dropped.  A step at which every pair has met (zero separation)
    has no mean log separation: its curve value is ``-inf``, and such a step
    inside ``fit_range`` raises DegenerateSeriesError.  A tracked separation
    that overflows floats, at any step, raises NonFiniteError.
    A separation sums its squared coordinate differences in lag order, as
    ``np.linalg.norm`` does below 8 terms (above, numpy sums pairwise).
    The series is checked as the ``embedding`` module docstring states.
    """
    series = _check_series(series)
    if theiler is None:
        theiler = params.m * params.tau
    if theiler < 0:
        raise ValueError(f"theiler must be >= 0, got {theiler}")
    if fit_range is None:
        if horizon < 3:
            raise ValueError(f"horizon {horizon} leaves no default fit range; "
                             "need horizon >= 3 or an explicit fit_range")
        fit_range = (1, max(3, horizon // 2))
    lo, hi = int(fit_range[0]), int(fit_range[1])
    if not (0 <= lo < hi <= horizon) or hi - lo < 2:
        raise ValueError("fit_range must satisfy 0 <= start < end <= horizon, end - start >= 2")
    needed = params.span + horizon + theiler + 1
    if series.size < needed:
        raise TooShortError(f"need at least {needed} samples")

    pts = delay_embed(series, params)
    n = pts.shape[0]
    usable = n - horizon  # pairs track the full horizon; >= theiler + 2 by the length check
    base = pts[:usable]
    tree = cKDTree(base)
    idx = np.arange(usable)
    partner = _nearest_outside_window(tree, base, idx, theiler)

    valid = partner >= 0
    i_ref = idx[valid]
    j_ref = partner[valid]
    d0 = np.linalg.norm(base[i_ref] - base[j_ref], axis=1)
    keep = d0 > 0
    i_ref, j_ref = i_ref[keep], j_ref[keep]
    if i_ref.size == 0:
        raise DegenerateSeriesError("no separated neighbor pairs found")

    # point i's lag j is series[i + j * tau], so step k sums the squared
    # sample differences at offsets k + j * tau; the steps k = r (mod tau)
    # share offsets, and row p % m holds offset r + p * tau
    m, tau = params.m, params.tau
    lag_sq = np.empty((m, i_ref.size))
    curve = np.empty(horizon + 1)
    # a separation that overflows makes its step's mean log separation +inf
    with np.errstate(over="ignore"):
        for r in range(min(tau, horizon + 1)):
            for p, t in enumerate(range(r, horizon + params.span, tau)):
                np.square(series[i_ref + t] - series[j_ref + t], out=lag_sq[p % m])
                if p >= m - 1:
                    d = np.sqrt(sum(lag_sq[(p + 1 + j) % m] for j in range(m)))
                    good = d > 0
                    curve[t - (m - 1) * tau] = np.mean(np.log(d[good])) if np.any(good) else -np.inf
    if np.any(curve == np.inf):
        raise NonFiniteError("a tracked neighbour separation overflows the float range")
    if not np.all(np.isfinite(curve[lo:hi])):
        raise DegenerateSeriesError("a step in the fit range has no separated neighbor pair")
    ks = np.arange(lo, hi)
    slope = float(np.polyfit(ks, curve[lo:hi], 1)[0])
    return LyapunovEstimate(mle=slope, divergence_curve=curve, fit_range=(lo, hi))


def _nearest_outside_window(tree, base, idx, theiler):
    """Nearest neighbor index with |i - j| > theiler (-1 when none exists).

    The window |i - j| <= theiler holds at most 2 * theiler + 1 points, so
    the 2 * theiler + 4 nearest neighbours always include a partner unless
    that count is capped at the number of points.  Most points find one
    among their ``_FIRST_K`` nearest, so only the rest get the full query
    (the same partner unless two neighbours tie exactly in distance).  The
    points are queried in blocks so the (points, k) arrays stay bounded.
    """
    n = base.shape[0]
    k = min(n, 2 * theiler + 4)
    partner = np.full(n, -1, dtype=int)
    todo = idx
    for k_query in (min(k, _FIRST_K), k):
        for lo in range(0, todo.size, _QUERY_BLOCK):
            block = todo[lo : lo + _QUERY_BLOCK]
            dist, nbrs = tree.query(base[block], k=k_query)
            ok = np.abs(nbrs - block[:, None]) > theiler
            has = ok.any(axis=1)
            first = ok.argmax(axis=1)
            if np.isinf(dist[has, first[has]]).any():
                # the tree reports a neighbour it cannot place as index n
                raise NonFiniteError("a neighbour distance overflows the float range")
            partner[block[has]] = nbrs[has, first[has]]
        todo = todo[partner[todo] < 0]
    return partner


def mle_table(dataset, params, horizon: int = 200, theiler: int | None = None,
              fit_range: tuple | None = None) -> dict:
    """Channel-wise estimates plus their arithmetic mean.

    ``params`` is one EmbeddingParams shared by all channels or a list with
    one entry per channel.  A dataset that is neither a series nor a
    (samples, channels >= 1) array raises ShapeMismatchError.
    """
    arr = _as_2d(dataset)
    channels = arr.shape[1]
    if isinstance(params, EmbeddingParams):
        params = [params] * channels
    if len(params) != channels:
        raise ValueError("need one EmbeddingParams per channel")
    estimates = [
        estimate_mle(arr[:, c], params[c], horizon, theiler, fit_range)
        for c in range(channels)
    ]
    per_channel = np.array([e.mle for e in estimates])
    return {
        "per_channel": per_channel,
        "mean": float(per_channel.mean()),
        "estimates": estimates,
    }
