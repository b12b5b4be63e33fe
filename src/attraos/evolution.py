"""Single-step evolution of dynamical representations.

Three interchangeable strategies: frequency-domain (per-mode complex linear
operators on the lowest DFT modes), direct (k-means partition of the
trajectory with one local linear operator per cluster), and retrieval (a
softmax associative memory whose stored patterns act as attractor prototypes).
All operators are fit in closed form by ridge regression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyInputError,
    NonFiniteError,
    ShapeMismatchError,
    SingularSystemError,
    TooManyModesError,
)


def fft_modes(x: np.ndarray, m_modes: int) -> np.ndarray:
    """Real-input DFT along axis 0, truncated to the m_modes lowest bins."""
    x = np.asarray(x, dtype=float)
    full = x.shape[0] // 2 + 1
    if m_modes < 1 or m_modes > full:
        raise TooManyModesError(f"m_modes must lie in [1, {full}] for length {x.shape[0]}")
    return np.fft.rfft(x, axis=0)[:m_modes]


def ifft_modes(spectrum: np.ndarray, seq_len: int) -> np.ndarray:
    """Invert a truncated spectrum to ``seq_len`` samples; ``irfft`` takes
    the missing high modes as zero (numpy convention: the inverse transform
    carries the 1/L factor)."""
    spectrum = np.asarray(spectrum, dtype=complex)
    if spectrum.shape[0] > seq_len // 2 + 1:
        raise TooManyModesError("spectrum has more modes than the target length")
    return np.fft.irfft(spectrum, n=seq_len, axis=0)


def ridge_fit(a: np.ndarray, b: np.ndarray, ridge_lambda: float) -> np.ndarray:
    """W minimizing sum ||W a_s - b_s||^2 + lambda ||W||^2 over rows of a, b.

    One thin SVD of the design, a = U diag(s) V^H, gives
    W = (V diag(s / (s^2 + lambda)) U^H b)^T for real and complex input and
    for any shape, designs with more features than rows too.  The Gram
    matrix a^H a, whose condition number is the square of a's, is never
    formed.  With lambda = 0 a design whose rank (its singular values
    above ``matrix_rank``'s default tolerance) is below its feature count
    raises SingularSystemError; NaN or inf in a or b raises NonFiniteError
    before anything is factored.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeMismatchError("need matching (samples, features) arrays")
    if ridge_lambda < 0:
        raise ValueError("ridge_lambda must be >= 0")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NonFiniteError("ridge design or targets contain NaN or inf")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if ridge_lambda == 0.0:
        tol = s.max(initial=0.0) * max(a.shape) * np.finfo(s.dtype).eps
        if np.count_nonzero(s > tol) < a.shape[1]:
            raise SingularSystemError("rank-deficient design with lambda = 0")
    # s / (s^2 + lambda), written so that s^2 cannot overflow; a zero
    # singular value (lambda > 0 here) gets gain 0
    with np.errstate(divide="ignore", over="ignore"):
        gain = 1.0 / (s + ridge_lambda / s)
    return (vh.conj().T @ (gain[:, None] * (u.conj().T @ b))).T


@dataclass(frozen=True)
class SpectralEvolutionModel:
    """Per-mode complex operators W_i (M, N, N) over length-L sequences, for
    the M lowest DFT modes."""

    mode_ops: np.ndarray
    seq_len: int


def fit_spectral_operators(
    a_spec: np.ndarray,
    b_spec: np.ndarray,
    seq_len: int,
    ridge_lambda: float,
) -> SpectralEvolutionModel:
    """Per-mode ridge fit from spectra (S, M, N) to next-step spectra.

    Mode i's fit sees its rows only through the Gram and cross products of
    ``a_spec[:, i]`` and ``b_spec[:, i]``, so any rows with the same
    products give the same operators: a fit can pass the spectra of a few
    factor rows in place of one row per training sequence."""
    a_spec = np.asarray(a_spec, dtype=complex)
    b_spec = np.asarray(b_spec, dtype=complex)
    if a_spec.shape != b_spec.shape or a_spec.ndim != 3:
        raise ShapeMismatchError("spectra must share a (samples, modes, N) shape")
    if a_spec.shape[0] < 1:
        raise EmptyInputError("need at least one training pair")
    m_modes, n = a_spec.shape[1], a_spec.shape[2]
    ops = np.empty((m_modes, n, n), dtype=complex)
    for i in range(m_modes):
        ops[i] = ridge_fit(a_spec[:, i, :], b_spec[:, i, :], ridge_lambda)
    return SpectralEvolutionModel(mode_ops=ops, seq_len=seq_len)


def apply_spectral_evolution(x: np.ndarray, model: SpectralEvolutionModel) -> np.ndarray:
    """Low modes in, W_i per mode, back to the original scale: x holds
    length-L sequences along axis 0 and N-vectors along its last axis.  The
    (M, ..., N, N) mode operators may carry middle axes that broadcast
    against x's: a stack of models, each applied to its own sequences."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != model.seq_len:
        raise ShapeMismatchError(
            f"model was fit for length {model.seq_len}, got {x.shape[0]}"
        )
    spec = fft_modes(x, model.mode_ops.shape[0])
    out = np.einsum("m...ij,m...j->m...i", model.mode_ops, spec)
    return ifft_modes(out, model.seq_len)


# ---------------------------------------------------------------------------
# direct evolution: k-means partition + per-cluster local operator


@dataclass(frozen=True)
class AttractorPartition:
    labels: np.ndarray
    centroids: np.ndarray  # (k, features)
    inertia_history: np.ndarray = field(default_factory=lambda: np.zeros(0))


def kmeans_partition(points: np.ndarray, k: int, seed: int = 0) -> AttractorPartition:
    """Lloyd's algorithm with k-means++ seeding (deterministic per seed), at
    most 100 iterations.  A Lloyd step's distances are one matrix product,
    |x|^2 - 2 x c^T + |c|^2 clipped at 0: the labels are the broadcast
    formula's unless two centroids tie to the last bits."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise EmptyInputError("need a non-empty (points, features) array")
    n = points.shape[0]
    if k < 1 or k > n:
        raise ValueError("need 1 <= k <= number of points")
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(points, k, rng)
    labels = np.zeros(n, dtype=int)
    inertia = []
    sq_norms = (points**2).sum(axis=1)[:, None]
    for _ in range(100):
        d2 = sq_norms - 2.0 * (points @ centroids.T) + (centroids**2).sum(axis=1)
        np.maximum(d2, 0.0, out=d2)
        new_labels = d2.argmin(axis=1)
        inertia.append(float(d2[np.arange(n), new_labels].sum()))
        moved = np.any(new_labels != labels) or len(inertia) == 1
        labels = new_labels
        for c in range(k):
            members = points[labels == c]
            if members.shape[0]:
                centroids[c] = members.mean(axis=0)
            else:
                # re-seed an empty cluster at the point farthest from its centroid
                far = int(d2[np.arange(n), labels].argmax())
                centroids[c] = points[far]
                labels[far] = c
        if not moved:
            break
    return AttractorPartition(
        labels=labels, centroids=centroids, inertia_history=np.asarray(inertia)
    )


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(..., n, k) squared distances of (..., n, F) points to (..., k, F)
    centroids, filled one centroid at a time over the leading axes so no
    (n, k, F) temporary is made; each entry sums its row like the
    broadcast formula does, so the values are the same.  Serving uses it
    because a row's label must not depend on the batch it comes in."""
    d2 = np.empty(np.broadcast_shapes(points.shape[:-2], centroids.shape[:-2])
                  + (points.shape[-2], centroids.shape[-2]))
    for c in range(centroids.shape[-2]):
        d2[..., c] = ((points - centroids[..., c, None, :]) ** 2).sum(axis=-1)
    return d2


def _kmeanspp_init(points: np.ndarray, k: int, rng) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = _sq_dists(points, centroids[:1])[:, 0]
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[c:] = centroids[0]
            break
        probs = d2 / total
        centroids[c] = points[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, _sq_dists(points, centroids[c : c + 1])[:, 0])
    return centroids


@dataclass(frozen=True)
class DirectEvolutionModel:
    """One ridge-fit N x N map per cluster, shared by the D coordinates of a
    position; a position goes to the centroid nearest its (D * N) state."""

    centroids: np.ndarray  # (k, D * N)
    operators: np.ndarray  # (k, N, N)


def fit_direct_operators(
    reps: np.ndarray,
    partition: AttractorPartition,
    ridge_lambda: float,
    *,
    targets: np.ndarray,
) -> DirectEvolutionModel:
    """Per-cluster map from each point to its successor.

    ``reps`` holds (T, D, N) source positions and ``targets`` their
    successors; the pair (reps[t], targets[t]) belongs to the cluster
    ``partition.labels[t]``, and each of its D coordinates is one N-vector
    pair of that cluster's fit.  Clusters with no pairs fall back to identity.
    """
    reps = np.asarray(reps, dtype=float)
    if reps.ndim != 3 or reps.shape[0] == 0:
        raise EmptyInputError("need a non-empty (time, D, N) array")
    targets = np.asarray(targets, dtype=float)
    if targets.shape != reps.shape:
        raise ShapeMismatchError("targets must match reps in shape")
    n = reps.shape[2]
    ops = np.tile(np.eye(n), (len(partition.centroids), 1, 1))
    for c in np.unique(partition.labels):
        mask = partition.labels == c
        ops[c] = ridge_fit(reps[mask].reshape(-1, n), targets[mask].reshape(-1, n), ridge_lambda)
    return DirectEvolutionModel(centroids=partition.centroids, operators=ops)


def apply_direct_evolution(x: np.ndarray, model: DirectEvolutionModel) -> np.ndarray:
    """Advance each (D, N) position of a (..., rows, D, N) array by its
    nearest-centroid cluster operator.  The model's arrays may carry leading
    axes, (..., k, D * N) centroids and (..., k, N, N) operators; x has as
    many before its rows, and they broadcast: a stack of models, each
    applied to its own rows.  Each row is its own product, so a row does
    not depend on the others."""
    x = np.asarray(x, dtype=float)
    lead = x.shape[: model.centroids.ndim - 1]  # the model's leading axes and the rows
    labels = _sq_dists(x.reshape(*lead, -1), model.centroids).argmin(axis=-1)
    ops = np.take_along_axis(model.operators, labels[..., None, None], axis=-3)
    return x @ ops.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# retrieval evolution: softmax associative memory


@dataclass(frozen=True)
class HopfieldConfig:
    patterns: np.ndarray  # (P, d), rows are stored patterns
    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if not np.all(np.isfinite(self.patterns)):
            raise ValueError("patterns must be finite")


def hopfield_update(query: np.ndarray, config: HopfieldConfig) -> np.ndarray:
    """One retrieval step: xi <- X softmax(beta X^T xi), the auto-associative
    case of ``apply_hopfield_evolution``."""
    memory = HopfieldEvolutionModel(keys=config.patterns, values=config.patterns,
                                    beta=config.beta)
    return apply_hopfield_evolution(np.asarray(query)[None], memory)[0]


def hopfield_energy(xi: np.ndarray, config: HopfieldConfig) -> float:
    """-lse(beta, X^T xi) + ||xi||^2/2 + log(P)/beta + M^2/2."""
    xi = np.asarray(xi, dtype=float)
    logits = config.beta * (config.patterns @ xi)
    lse = (np.log(np.sum(np.exp(logits - logits.max()))) + logits.max()) / config.beta
    m2 = float((config.patterns**2).sum(axis=1).max())
    p = config.patterns.shape[0]
    return float(-lse + 0.5 * xi @ xi + np.log(p) / config.beta + 0.5 * m2)


@dataclass(frozen=True)
class HopfieldEvolutionModel:
    """Hetero-associative retrieval: keys are attractor prototypes of the
    current state, values the matching next-state prototypes."""

    keys: np.ndarray
    values: np.ndarray
    beta: float


def fit_hopfield_evolution(
    reps: np.ndarray,
    partition: AttractorPartition,
    beta: float,
    *,
    targets: np.ndarray,
) -> HopfieldEvolutionModel:
    """Store one (centroid, mean successor) pair per cluster.

    ``reps`` holds (T, D, N) source positions and ``targets`` their
    successors; the pair (reps[t], targets[t]) belongs to the cluster
    ``partition.labels[t]``, and a value is a mean of flattened (D * N)
    successor states.  A cluster with no pairs maps its centroid to itself.
    """
    reps = np.asarray(reps, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if targets.shape != reps.shape:
        raise ShapeMismatchError("targets must match reps in shape")
    if reps.shape[0] == 0:
        raise EmptyInputError("need at least one transition")
    targets = targets.reshape(len(targets), -1)
    values = np.empty_like(partition.centroids)
    for c in range(len(partition.centroids)):
        mask = partition.labels == c
        values[c] = targets[mask].mean(axis=0) if np.any(mask) else partition.centroids[c]
    return HopfieldEvolutionModel(keys=partition.centroids, values=values, beta=beta)


def apply_hopfield_evolution(x: np.ndarray, model: HopfieldEvolutionModel) -> np.ndarray:
    """x' = V^T softmax(beta K x) per position of a (..., rows, D, N) array,
    on its flattened (D * N) state.  The (..., k, D * N) keys and values may
    carry leading axes; x has as many before its rows, and they broadcast:
    a stack of memories, each applied to its own rows.  The logits and the
    retrieval of each row are products of their own (a broadcast matmul
    over the rows), so a row does not depend on the rows computed with it."""
    x = np.asarray(x, dtype=float)
    lead = x.shape[: model.keys.ndim - 1]  # the model's leading axes and the rows
    # the flattened rows are a copy of a strided x; it is freed after the product
    keys = model.keys.swapaxes(-1, -2)[..., None, :, :]
    logits = model.beta * (x.reshape(*lead, 1, -1) @ keys)[..., 0, :]
    logits -= logits.max(axis=-1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=-1, keepdims=True)
    return (w[..., None, :] @ model.values[..., None, :, :]).reshape(x.shape)
