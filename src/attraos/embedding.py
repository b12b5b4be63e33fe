"""Phase-space reconstruction from sampled series.

Coordinate-delay embedding (oldest coordinate first) with data-driven
parameter selection: the delay is the first strict local minimum of the
histogram-estimated mutual information between the series and its lagged
copy, and the dimension is the smallest one whose false-nearest-neighbor
fraction drops below 1%.  The FNN test is the two-part criterion:
a neighbor is false when the extra coordinate blows up relative to its
current distance (ratio tolerance 10) or relative to the attractor size
(loneliness tolerance 2); the second part keeps pure noise from looking
embeddable at large dimensions.  Only ``fnn_profile`` searches every point
of every dimension: a dimension decision stops a search once 1% of its
points are false, since its fraction can then no longer fall below the
threshold, and runs no search at max_m, which is the answer either way.

Every function here and in ``lyapunov`` that reads a scalar series raises
ShapeMismatchError for one that is not 1-D, and NonFiniteError for one with
NaN or inf or whose spread (``mi_profile``) or nearest-neighbour distances
(``lyapunov``) overflow floats.  The FNN test scales the series by a power
of two first (``_unit_scaled``, which the forecaster's normalization shares),
so its fractions do not depend on the series' magnitude.  ``_as_2d`` states
the one (samples, channels) layout of a multichannel series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateSeriesError, NonFiniteError, ShapeMismatchError, TooShortError

FNN_RATIO_TOL = 10.0
FNN_SIZE_TOL = 2.0
FNN_THRESHOLD = 0.01
_QUERY_BLOCK = 1024  # points per kd-tree query when only the FNN decision is needed


@dataclass(frozen=True)
class EmbeddingParams:
    m: int
    tau: int

    def __post_init__(self):
        if not all(type(v) is int or isinstance(v, np.integer) for v in (self.m, self.tau)):
            raise ValueError("embedding m and tau must be integers")
        if self.m < 1 or self.tau < 1:
            raise ValueError("embedding needs m >= 1 and tau >= 1")

    @property
    def span(self) -> int:
        """Samples covered by one embedded point: (m-1)*tau + 1."""
        return (self.m - 1) * self.tau + 1


def default_bins(length: int) -> int:
    return int(np.clip(int(np.sqrt(length / 5)), 8, 64))


def default_max_tau(length: int) -> int:
    """Largest delay the MI scan tries for a series of ``length`` samples."""
    return int(np.clip(length // 10, 10, 100))


def _as_2d(series) -> np.ndarray:
    """A series as a (samples, channels) array; a 1-D series is one channel.
    Any other layout raises ShapeMismatchError."""
    arr = np.asarray(series, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ShapeMismatchError(
            f"expected a 1-D series or (samples, channels >= 1), got shape {arr.shape}"
        )
    return arr


def _unit_scaled(x: np.ndarray, axis=None):
    """``x`` times 2^-e, where e (kept along ``axis``) brings its largest
    magnitude along ``axis`` into [0.5, 1), and e.

    Scaling by a power of two is exact and keeps every ratio and comparison;
    with |x| < 1 no spread, distance or square overflows, and a tiny series
    no longer underflows when squared."""
    exp = np.frexp(np.abs(x).max(axis=axis, keepdims=True))[1]
    return np.ldexp(x, -exp), exp


def _check_series(series: np.ndarray) -> np.ndarray:
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ShapeMismatchError(f"expected a 1-D scalar series, got shape {series.shape}")
    if not np.all(np.isfinite(series)):
        raise NonFiniteError("series contains NaN or inf")
    # comparing the extremes, unlike np.ptp, cannot overflow
    if series.size and series.min() == series.max():
        raise DegenerateSeriesError("series is constant")
    return series


def mi_profile(series, max_tau: int) -> np.ndarray:
    """I(tau) in nats for tau = 0..max_tau, equal-width histogram estimator
    with ``default_bins(len(series))`` bins."""
    series = _check_series(series)
    if max_tau < 1:
        raise ValueError("max_tau must be >= 1")
    if series.size < 4 * max_tau:
        raise TooShortError(f"need at least {4 * max_tau} samples for max_tau={max_tau}")
    lo, hi = float(series.min()), float(series.max())
    if not np.isfinite(hi - lo):
        raise NonFiniteError("the series' spread overflows the float range")
    bins = default_bins(series.size)
    # with a spread of a few subnormal steps the rounded edges can step back
    edges = np.maximum.accumulate(np.linspace(lo, hi, bins + 1))
    # each sample's bin, taken once by histogram2d's rule: the top edge
    # closes the last bin
    idx = np.minimum(np.searchsorted(edges, series, side="right"), bins) - 1
    out = np.empty(max_tau + 1)
    for tau in range(max_tau + 1):
        pairs = idx[: series.size - tau] * bins + idx[tau:]
        joint = np.bincount(pairs, minlength=bins * bins).reshape(bins, bins) / pairs.size
        px = joint.sum(axis=1)
        py = joint.sum(axis=0)
        nz = joint > 0
        out[tau] = float(
            np.sum(joint[nz] * np.log(joint[nz] / np.outer(px, py)[nz]))
        )
    return out


def mutual_information_delay(series, max_tau: int) -> int:
    """First strict local minimum of I(tau); argmin over [1, max_tau] if none.

    Histogram MI curves carry bin-level jitter, so a minimum only counts when
    it undercuts every value in a +-max(2, max_tau//12) neighborhood.
    """
    profile = mi_profile(series, max_tau)
    w = max(2, max_tau // 12)
    for tau in range(1, max_tau):
        lo = max(0, tau - w)
        hi = min(max_tau, tau + w)
        neighborhood = np.concatenate([profile[lo:tau], profile[tau + 1 : hi + 1]])
        if np.all(profile[tau] < neighborhood):
            return tau
    return int(np.argmin(profile[1:]) + 1)


def _embed_forward(series: np.ndarray, m: int, tau: int) -> np.ndarray:
    n = series.shape[-1] - (m - 1) * tau
    view = np.lib.stride_tricks.sliding_window_view(series, (m - 1) * tau + 1, axis=-1)
    return view[..., :n, ::tau]


def _fnn_fractions(series, tau: int, max_m: int, dims=None, decide: bool = False):
    """(m, false-neighbor fraction) for each m of ``dims`` (default
    1..max_m) in turn; ends early at the first m the series is too short to
    test, which the length check at max_m leaves only m = max_m.  The
    series is checked when iteration starts, even for no dims.

    A search queries all its points at once.  With ``decide`` it queries
    them in blocks of _QUERY_BLOCK and stops once FNN_THRESHOLD of them are
    false, so a fraction at or above the threshold may count only the points
    queried so far; one below it is always whole.  A point's neighbor does
    not depend on which other points are queried, and the false count over
    ``usable`` is the same float as ``np.mean`` of the flags, so whether a
    fraction is below the threshold never depends on ``decide``."""
    series = _check_series(series)
    if tau < 1 or max_m < 1:
        raise ValueError("need tau >= 1 and max_m >= 1")
    if series.size < (max_m - 1) * tau + 2:
        raise TooShortError("series too short to embed at max_m")
    series = _unit_scaled(series)[0]
    sigma = float(series.std())
    for m in range(1, max_m + 1) if dims is None else dims:
        usable = series.size - m * tau
        if usable < 2:
            return
        pts = _embed_forward(series, m, tau)[:usable]
        tree = cKDTree(pts)
        step = _QUERY_BLOCK if decide else usable
        false = 0
        for lo in range(0, usable, step):
            hi = min(lo + step, usable)
            dist, idx = tree.query(pts[lo:hi], k=2)
            d = dist[:, 1]
            extra = np.abs(series[lo + m * tau : hi + m * tau] - series[idx[:, 1] + m * tau])
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(d > 0, extra / np.where(d > 0, d, 1.0), np.inf)
            ratio[(d == 0) & (extra == 0)] = 0.0
            lonely = np.sqrt(d**2 + extra**2) / sigma > FNN_SIZE_TOL
            false += int(np.count_nonzero((ratio > FNN_RATIO_TOL) | lonely))
            if false / usable >= FNN_THRESHOLD:
                break
        yield m, false / usable


def fnn_profile(series, tau: int, max_m: int) -> np.ndarray:
    """False-neighbor fraction for m = 1..max_m (1.0 where too short to test),
    each from a search of every point."""
    tested = [frac for _, frac in _fnn_fractions(series, tau, max_m)]
    return np.concatenate([tested, np.ones(max_m - len(tested))])


def false_nearest_neighbors(series, tau: int, max_m: int) -> int:
    """Smallest m <= max_m whose FNN fraction is below FNN_THRESHOLD, else
    max_m; the search stops there and tests no larger dimension.  A
    dimension's search stops once 1% of its points are false, and m = max_m
    is never searched: it is the answer whether or not it passes."""
    return _fnn_dimension(series, tau, max_m, floor=0)


def _fnn_dimension(series, tau: int, max_m: int, floor: int) -> int:
    """max(floor, false_nearest_neighbors(series, tau, max_m)) for
    0 <= floor <= max_m, from fewer searches when floor > 0.

    The answer is ``floor`` as soon as some m <= floor has a fraction below
    FNN_THRESHOLD, so m = floor is tested first, then 1..floor-1, and only
    then floor+1 upward; m = max_m, the answer whether or not it passes, is
    not tested, so at floor = max_m nothing is.  Each search stops once 1%
    of its points are false (``_fnn_fractions`` with ``decide``).  The series
    is checked all the same, so one too short at max_m still raises."""
    if floor == max_m:
        dims = []
    else:
        dims = [m for m in (floor, *range(1, floor), *range(floor + 1, max_m)) if m]
    for m, frac in _fnn_fractions(series, tau, max_m, dims, decide=True):
        if frac < FNN_THRESHOLD:
            return max(m, floor)
    return max_m


def delay_embed(series, params: EmbeddingParams) -> np.ndarray:
    """Delay embedding per u_i = (z_{i-(m-1)tau}, ..., z_{i-tau}, z_i).

    Returns the (count, m) array of points, count = n - (m-1)*tau; point i
    ends at sample i + (m-1)*tau.  Time runs along the last axis; a (..., n)
    batch of equal-length series embeds every series at once into
    (..., count, m) points.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim < 1:
        raise ValueError("expected a scalar series or a batch of them")
    if series.shape[-1] < params.span:
        raise TooShortError(
            f"need at least {params.span} samples for m={params.m}, tau={params.tau}"
        )
    return _embed_forward(series, params.m, params.tau).copy()


def patch(points, p: int) -> np.ndarray:
    """Group p consecutive points and flatten each group to a D = m*p vector.

    The leading remainder (len mod p) is dropped so the most recent points are
    always kept.  Flattening is time-major: the first m entries of a patch
    vector are its oldest point.  Points of shape (..., n, m) give patches of
    shape (..., n // p, p*m).
    """
    if p < 1:
        raise ValueError("patch length must be >= 1")
    pts = np.asarray(points, dtype=float)
    *lead, n, m = pts.shape
    count = n // p
    kept = pts[..., n - count * p :, :]
    return kept.reshape(*lead, count, p * m)


def select_embedding(
    series,
    max_tau: int | None = None,
    max_m: int = 10,
) -> EmbeddingParams:
    """Delay from the MI minimum, then dimension from FNN.

    Multivariate input (2-D, columns are channels) is handled channel
    independently; the unified parameters are the maximum m and the median tau
    across the channels that are not constant (a constant channel has no
    dynamics to embed; only an all-constant input raises
    DegenerateSeriesError).  Channels are taken in order, and a later one
    runs only the FNN searches that can show it raises the maximum m so
    far (``_fnn_dimension``); a search stops once 1% of its points are
    false, and none runs at ``max_m``.  Each series is checked as the
    module docstring states, so input of more than two dimensions raises
    ShapeMismatchError.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim == 2:
        channels = [arr[:, c] for c in range(arr.shape[1])
                    if arr.shape[0] == 0 or arr[:, c].min() != arr[:, c].max()]
        if not channels:
            raise DegenerateSeriesError("every channel is constant")
    else:
        channels = [arr]
    m, taus = 0, []
    for x in channels:
        tau = mutual_information_delay(x, default_max_tau(x.size) if max_tau is None else max_tau)
        m = _fnn_dimension(x, tau, max_m, floor=m) if m else false_nearest_neighbors(x, tau, max_m)
        taus.append(tau)
    return EmbeddingParams(m=m, tau=int(np.median(taus)))
