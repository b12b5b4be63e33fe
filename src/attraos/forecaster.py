"""End-to-end attractor-aware forecaster.

Per channel, for a batch of context windows at once, the pipeline is:
instance-normalize (exactly at any magnitude, ``_normalize``), delay-embed,
patch, run the discretized polynomial-projection recurrence over the patch
sequence, split the state
sequence into a multi-scale pyramid, advance every scale one step with the
configured evolution strategy, reconstruct the finest scale from the evolved
pyramid, collapse the polynomial axis by evaluating each window expansion at
its right endpoint, and map the flattened features to the next ``horizon``
samples with a ridge-fit readout.

Every stage after patching up to the evolution, and from reconstruction to
the endpoint, acts identically and linearly on each of the D = m * p patch
coordinates, as do ``frequency`` evolution and the N x N operator of each
``direct`` cluster.  The linear stages therefore run as small per-coordinate
matrices applied to each window's (steps, D) array: a front operator
(recurrence, left padding, decompose) and a back operator (reconstruct, drop
padding, endpoint).  They are derived by pushing identity inputs through the
reference primitives (``sequential_scan``, ``decompose``, ``reconstruct``).
Each window, and under ``direct`` and ``hopfield`` each position, gets its
own identically shaped matrix product, so a window's features do not depend
on the batch it is computed in, for every strategy.

Delay embedding and patching only pick samples, so a window is embedded
and patched by one gather of the model's (L, D) sample ``index``.  Between
the two operators a window is one (S, D) array, the stack: the whole
pyramid, each scale a fixed block of rows (``ShapeInfo.scale_rows``).
Evolution writes each scale's next step into the same rows of a new stack;
it sees the block as a (positions, D, N) view, ``frequency`` evolution
(``apply_spectral_evolution``) as D * N sequences along the positions,
``direct`` and ``hopfield``, which are nonlinear in a position's (D, N)
state, as one state per position.

``_features`` runs the stages after the front operator, evolution and the
back operator, on a (C, B, S, D) stack of C channels' windows at once:
each channel's evolvers are stacked along a leading channel axis per scale
(``_stacked``), and the evolution functions broadcast over it.  With
``frequency`` evolution every stage after instance normalization is linear,
from the delay embedding to the readout, so each channel's pipeline
collapses to one (window, horizon) serving map.  ``_features`` applied to
the front operator itself, its L columns taken as coordinates, gives each
channel's (L', L) stage map.  That map on the embedded and patched identity
window (``_stage_map``) takes a normalized window to its feature row: a
``frequency`` fit builds its readout design from it and keeps, as the
channel's readout, the stage map times the ridge solution on the features:
the serving map.  ``predict`` normalizes each channel's window once, takes
all channels' normalized forecasts in one pass, from the serving maps
(``frequency``) or from the stack, one ``_features`` call and the stacked
readouts (``direct``/``hopfield``), and denormalizes once; normalization
stays outside the maps, so a constant channel still forecasts its mean
exactly.

A fitted model is its config, which holds the embedding it was fit with,
and its maps, each array held once, stacked over the channels: one evolver
per scale (``_stacked``) and the readouts, (C, window, horizon) serving
maps for ``frequency`` and (C, L' * D, horizon) feature readouts for
``direct`` and ``hopfield``.  The shapes, the stage operators and the
sample index are closed-form functions of the config, so
``FittedForecaster`` derives them when it is constructed, after a fit and
after a load alike.  The model document (``model_to_json``, version 5)
stores the config and the embedding as JSON and each channel's slice of
the fitted arrays as base64 float64 bytes; this module is the only one that
reads or writes it.  A ``frequency`` document keeps its mode operators,
though the serving maps alone forecast, so that the fitted spectra can be
inspected.

Every learned map is a closed-form ridge regression (``evolution.ridge_fit``,
one thin SVD of its design); there is no iterative training.  The training
windows and their normalized targets come from one function (``_windows``).
Evolution operators are fit on consecutive-window pairs (windows shifted by
one patch), so "evolve" means "advance the window by one patch".  A
``frequency`` fit sees the training windows only through two Gram matrices,
so it fits on the R factors of two thin QR decompositions and builds no
stack (``_fit_frequency``).  ``direct`` and ``hopfield`` fits run every
window through the stages, since k-means needs every source position, but
never hold a channel's whole (B, S, D) stack (``_fit_channel``): they build
the stacks ``FIT_BLOCK`` windows at a time, keep one scale's source
positions at a time, and build the readout design block by block.  A
window's rows do not depend on its block, so the model is the one the
whole batch gives.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, fields, replace
from itertools import accumulate

import numpy as np

from . import evolution as evo
from .embedding import EmbeddingParams, _as_2d, _unit_scaled, delay_embed, patch, select_embedding
from .errors import (
    EmptyInputError,
    ModelFormatError,
    NonFiniteError,
    ShapeMismatchError,
    TooShortError,
)
from .legendre import DiscretizedSsm, discretize, make_ssm_params
from .scan import ScanInput, sequential_scan
from .seeding import derive_seed
from .wavelet import Pyramid, WaveletFilters, build_filters, decompose, reconstruct

STRATEGIES = ("frequency", "direct", "hopfield")

AUTO_MAX_M = 6

# training windows whose stacks a direct/hopfield fit builds at once
FIT_BLOCK = 256


@dataclass(frozen=True)
class ForecasterConfig:
    window: int
    horizon: int
    embedding: EmbeddingParams | None = None  # None selects (m, tau) from data
    patch_len: int = 8
    poly_order: int = 8
    ssm_variant: str = "diag_neg1"
    theta: float = 4.0  # measure window in patch steps; per-step delta = 1/theta
    levels: int = 2
    m_modes: int = 16
    ridge_lambda: float = 1e-3
    evolution_strategy: str = "frequency"
    n_clusters: int = 8
    hopfield_beta: float = 4.0
    max_train_windows: int = 1024
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # 96.5, Infinity or true (whose type is bool) in a document is no count
            if f.type == "int" and not (type(value) is int or isinstance(value, np.integer)):
                raise ValueError(f"{f.name} must be an integer")
            if f.type == "float":
                # an integer beyond the float range compares as finite but
                # overflows where the model uses it
                try:
                    finite = math.isfinite(value)
                except (OverflowError, TypeError):
                    finite = False
                if not finite:
                    raise ValueError(f"{f.name} must be a finite float")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.patch_len < 1 or self.poly_order < 1 or self.levels < 0:
            raise ValueError("patch_len, poly_order >= 1 and levels >= 0 required")
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.evolution_strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.m_modes < 1 or self.n_clusters < 1:
            raise ValueError("m_modes and n_clusters must be >= 1")
        if self.ridge_lambda < 0:
            raise ValueError("ridge_lambda must be >= 0")
        if self.hopfield_beta <= 0:
            raise ValueError("hopfield_beta must be positive")
        if self.max_train_windows < 2:
            # one window makes no evolution pair
            raise ValueError("max_train_windows must be >= 2")


@dataclass(frozen=True)
class ShapeInfo:
    """Static pipeline shapes for a config with its embedding set.

    ``scale_rows[s]`` is the slice of the (S, D) stack that holds scale s
    (finest detail first, coarse last): ``scale_lens[s] * order`` rows,
    position-major.  A position of scale s spans ``padded // scale_lens[s]``
    patches and a ``frequency`` model evolves its ``scale_modes[s]`` lowest modes.
    """

    n_patches: int
    padded: int
    pad: int
    d: int
    order: int
    eff_levels: int
    scale_lens: tuple
    scale_rows: tuple
    scale_modes: tuple


def pipeline_shapes(config: ForecasterConfig) -> ShapeInfo:
    """Shapes of ``config``'s pipeline under its embedding, which must be set."""
    n_points = config.window - (config.embedding.m - 1) * config.embedding.tau
    if n_points < config.patch_len:
        raise TooShortError(
            "window leaves no full patch after embedding "
            f"(points={n_points}, patch_len={config.patch_len})"
        )
    n_patches = n_points // config.patch_len
    # each level splits disjoint pairs of cells, so the pyramid needs only a
    # multiple of 2^levels steps, with at most ceil(log2 n_patches) levels
    eff_levels = min(config.levels, (n_patches - 1).bit_length())
    cell = 2**eff_levels
    padded = -(-n_patches // cell) * cell
    scale_lens = tuple(padded >> min(i + 1, eff_levels) for i in range(eff_levels + 1))
    edges = tuple(accumulate((n * config.poly_order for n in scale_lens), initial=0))
    return ShapeInfo(
        n_patches=n_patches,
        padded=padded,
        pad=padded - n_patches,
        d=config.embedding.m * config.patch_len,
        order=config.poly_order,
        eff_levels=eff_levels,
        scale_lens=scale_lens,
        scale_rows=tuple(map(slice, edges[:-1], edges[1:])),
        scale_modes=tuple(min(config.m_modes, n // 2 + 1) for n in scale_lens),
    )


@dataclass(frozen=True)
class ForecastResult:
    predictions: np.ndarray  # (horizon, channels)


@dataclass(frozen=True)
class FittedForecaster:
    """A fitted model: its config, whose ``embedding`` is the one the model
    was fit with, and the fitted maps of its C channels, each array held
    once: ``evolvers``, one evolver per scale stacked over the channels
    (``_stacked``), and the ``readouts``.  A ``frequency`` model's readouts
    are its (C, window, horizon) serving maps, one per channel, from a
    normalized window to its normalized forecast; a ``direct`` or
    ``hopfield`` model's are (C, L' * D, horizon) maps from a window's
    feature row.  A model built from the config alone has neither; ``fit``
    fits on its stage operators.

    The remaining fields are derived from the config at construction and
    are neither compared nor serialized: the pipeline ``shapes``, the
    per-coordinate stage operators ``front`` (S, L) and ``back`` (L', S),
    built from the Euler-discretized recurrence and the wavelet filters,
    and the (L, D) ``index`` of the samples of a window that the embedded
    and patched window holds.
    """

    config: ForecasterConfig
    evolvers: list | None = None
    readouts: np.ndarray | None = None
    shapes: ShapeInfo = field(init=False, repr=False, compare=False)
    front: np.ndarray = field(init=False, repr=False, compare=False)
    back: np.ndarray = field(init=False, repr=False, compare=False)
    index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cfg = self.config
        shapes = pipeline_shapes(cfg)
        filters = build_filters(cfg.poly_order)
        # a theta near the bottom of the float range takes a recurrence step
        # beyond it; that is found below, not printed
        with np.errstate(over="ignore", invalid="ignore"):
            ssm = make_ssm_params(cfg.ssm_variant, cfg.poly_order, 1.0 / cfg.theta)
            front = _front_operator(discretize(ssm), filters, shapes)
        if not np.all(np.isfinite(front)):
            raise NonFiniteError("the recurrence overflows the float range at this theta")
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "front", front)
        object.__setattr__(self, "back", _back_operator(filters, shapes))
        samples = patch(delay_embed(np.arange(cfg.window), cfg.embedding), cfg.patch_len)
        object.__setattr__(self, "index", samples.astype(np.intp))

    @property
    def embedding(self) -> EmbeddingParams:
        return self.config.embedding

    @property
    def n_channels(self) -> int:
        return 0 if self.readouts is None else len(self.readouts)


def _finite_2d(series, what: str) -> np.ndarray:
    arr = _as_2d(series)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{what} contains NaN or inf")
    return arr


def _moments(windows: np.ndarray):
    """Each row's mean, deviations from it and spread (population standard
    deviation), in the arithmetic of ``np.mean`` and ``np.std``.  The
    deviations serve the spread and the normalized window alike, and
    numpy's wrappers around these reductions cost a one-window ``predict``
    more than the arithmetic does."""
    n = windows.shape[1]
    mu = np.add.reduce(windows, axis=1) / n
    dev = windows - mu[:, None]
    return mu, dev, np.sqrt(np.add.reduce(dev * dev, axis=1) / n)


def _scaled_normalize(windows: np.ndarray):
    """Per-window instance normalization of a (batch, window) array: the
    normalized windows, each window's mean and spread in units of 2^e, and
    the exponents e (``None`` when every e is 0).

    A window whose spread lies in [2^-460, 2^460] is normalized as it is,
    with e = 0; no deviation's square over- or underflows there.  Any other
    window, a constant one too, is normalized after ``_unit_scaled`` scales
    it by 2^-e, the power of two that brings its largest magnitude into
    [0.5, 1).  Scaling by a power of two is exact, so a series scaled by 2^k
    normalizes to the same bits, and the normalization of finite windows
    always succeeds.  A constant window (spread 0) takes spread 1 in its
    units, so its spread reads as 2^e."""
    # an overflowing sum or square leaves a spread outside the range below
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        mu, dev, sd = _moments(windows)
    rescale = ~((sd >= 2.0**-460) & (sd <= 2.0**460))
    if not rescale.any():
        return dev / sd[:, None], mu, sd, None
    scaled, e = _unit_scaled(windows[rescale], axis=1)
    mu[rescale], dev[rescale], sd[rescale] = _moments(scaled)
    sd[sd == 0.0] = 1.0  # a constant window
    exp = np.zeros(len(windows), dtype=int)
    exp[rescale] = e[:, 0]
    return dev / sd[:, None], mu, sd, exp


def _normalize(windows: np.ndarray):
    """The normalized windows of ``_scaled_normalize``, and each window's
    mean and spread in the windows' own units.  A window at the top of the
    float range can round its mean or spread past it, to inf; a forecast
    from it is then found non-finite."""
    zn, mu, sd, exp = _scaled_normalize(windows)
    if exp is None:
        return zn, mu, sd
    with np.errstate(over="ignore"):
        return zn, np.ldexp(mu, exp), np.ldexp(sd, exp)


def _front_operator(disc: DiscretizedSsm, filters: WaveletFilters, sh: ShapeInfo) -> np.ndarray:
    """(S, L) matrix from one coordinate's patch sequence to its stacked
    scale sequences: recurrence (in matrix mode for a full (N, N)
    ``disc.a_bar``), left padding, decompose.

    Column j is the response to a unit value at patch j, computed by running
    the identity through the primitives as L independent coordinates.  Scale
    s fills the rows ``scale_rows[s]`` of the stack.
    """
    length = sh.n_patches
    bu = np.eye(length)[..., None] * disc.b_bar  # (step, impulse, N)
    a_seq = np.broadcast_to(disc.a_bar, (length,) + disc.a_bar.shape)
    states = sequential_scan(ScanInput(a_seq=a_seq, bu_seq=bu, matrix=disc.a_bar.ndim == 2))
    # the pyramid needs a multiple of 2^levels steps; repeat the earliest
    # state on the left so the most recent data stays aligned
    states = np.concatenate([np.repeat(states[:1], sh.pad, axis=0), states], axis=0)
    pyr = decompose(states, filters, sh.eff_levels)
    return np.concatenate(
        [s.transpose(0, 2, 1).reshape(-1, length) for s in list(pyr.details) + [pyr.coarse]]
    )


def _back_operator(filters: WaveletFilters, sh: ShapeInfo) -> np.ndarray:
    """(L', S) matrix from stacked evolved scales to the endpoint value of
    each kept position: reconstruct, drop padding, evaluate at the right end.

    Column k is the response to a unit value at stack row k.
    """
    total = sh.scale_rows[-1].stop
    eye = np.eye(total)
    seqs = [
        eye[:, rows].reshape(total, n, sh.order).swapaxes(0, 1)
        for n, rows in zip(sh.scale_lens, sh.scale_rows)
    ]
    pyr = Pyramid(details=seqs[:-1], coarse=seqs[-1])
    states = reconstruct(pyr, filters)[sh.pad :]
    return states @ np.sqrt(2.0 * np.arange(sh.order) + 1.0)


def _positions(rows: np.ndarray, order: int) -> np.ndarray:
    """One scale's (..., B, L_s * N, D) stack rows as a (..., B, L_s, D, N)
    view: one (D, N) state per window position, as direct and hopfield
    evolution see it."""
    return np.swapaxes(rows.reshape(*rows.shape[:-2], -1, order, rows.shape[-1]), -2, -1)


def _stacked(evolvers: list, config: ForecasterConfig) -> list:
    """Each scale's evolvers of all channels, ``evolvers[c][s]``, as one
    evolver of that scale whose arrays carry a channel axis, as
    ``_features`` applies them: (C, k, D * N) centroids, keys and values,
    (C, k, N, N) operators, and (M, C, 1, 1, N, N) mode operators, which
    broadcast against the (M, C, B, D, N) spectra.  Channels whose cluster
    counts differ at a scale raise ShapeMismatchError."""
    strategy = config.evolution_strategy
    names = {"frequency": ("mode_ops",), "direct": ("centroids", "operators"),
             "hopfield": ("keys", "values")}[strategy]
    stacked = []
    for scale, evs in enumerate(zip(*evolvers, strict=True)):
        if len({getattr(ev, names[0]).shape for ev in evs}) > 1:
            raise ShapeMismatchError(f"channels differ in the cluster count of scale {scale}")
        arrays = {n: np.stack([getattr(ev, n) for ev in evs]) for n in names}
        if strategy == "frequency":
            arrays["mode_ops"] = np.swapaxes(arrays["mode_ops"], 0, 1)[:, :, None, None]
        stacked.append(replace(evs[0], **arrays))
    return stacked


def _stack(zn: np.ndarray, model) -> np.ndarray:
    """Embed and patch a (..., batch, window) array of normalized windows,
    one gather of the model's ``index``, then apply the front operator;
    returns the (..., batch, S, D) stacks."""
    return model.front @ zn[..., model.index]


def _valid_positions(length: int, cell: int, pad: int) -> np.ndarray:
    start = -(-pad // cell)  # ceil: cells that overlap the repeated padding
    if start >= length:
        # every position at this scale spans padding; keep them all rather
        # than dropping the scale
        return np.arange(length)
    return np.arange(start, length)


def _features(stack: np.ndarray, evolvers, model) -> np.ndarray:
    """Advance every scale of a (C, B, S, D) stack of C channels' windows
    by one step, each channel with its own evolvers (``_stacked``), then
    apply the back operator: one (L' * D) feature row per window,
    (C, B, L' * D).  All channels run in one call per scale."""
    sh = model.shapes
    strategy = model.config.evolution_strategy
    evolved = np.empty_like(stack)
    for rows, ev in zip(sh.scale_rows, evolvers):
        seqs = _positions(stack[..., rows, :], sh.order)  # (C, B, L_s, D, N)
        if strategy == "frequency":
            # the spectral map runs along each sequence, axis 0
            nxt = np.moveaxis(evo.apply_spectral_evolution(np.moveaxis(seqs, 2, 0), ev), 0, 2)
        else:
            apply = (evo.apply_direct_evolution if strategy == "direct"
                     else evo.apply_hopfield_evolution)
            # each channel's positions as its rows
            nxt = apply(seqs.reshape(len(seqs), -1, sh.d, sh.order), ev).reshape(seqs.shape)
        _positions(evolved[..., rows, :], sh.order)[...] = nxt
    # the broadcast matmul makes one product per window, so a row does not
    # depend on its batch (a whole-batch tensordot changes the last bits)
    return (model.back @ evolved).reshape(*stack.shape[:2], -1)


def _stage_map(evolvers, model) -> np.ndarray:
    """(C, window, L' * D) maps from a normalized window to its feature row
    under the C channels' ``frequency`` evolvers (``_stacked``).  Every
    stage acts alike on each patch coordinate, so ``_features`` evolves the
    front operator's L columns as L coordinates into one (L', L) stage map
    per channel; that map is applied to the embedded and patched identity
    window, (window, L, D).  A ``frequency`` fit builds each channel's
    readout design and serving map from it."""
    sh, window = model.shapes, model.config.window
    channels = evolvers[0].mode_ops.shape[1]
    fronts = np.broadcast_to(model.front, (channels, 1) + model.front.shape)
    stages = _features(fronts, evolvers, model).reshape(channels, 1, -1, sh.n_patches)
    return (stages @ np.eye(window)[:, model.index]).reshape(channels, window, -1)


def _windows(z: np.ndarray, config: ForecasterConfig):
    """A channel's normalized (B, window) training windows and their
    (B, horizon) targets, each horizon normalized by its window.

    This is the one statement of the training-window rule: windows start
    every ``patch_len`` samples, so consecutive windows are exactly one
    recurrence step apart (that is what the evolution operators model), and
    the most recent ``max_train_windows`` of them are kept.  Each horizon
    is normalized in its window's power-of-two units (``_scaled_normalize``),
    so a series near the top of the float range fits as it would at any
    scale; a normalized horizon beyond the float range raises
    NonFiniteError."""
    w, h = config.window, config.horizon
    starts = np.arange(0, len(z) - w - h + 1, config.patch_len)[-config.max_train_windows :]
    zn, mu, sd, exp = _scaled_normalize(z[starts[:, None] + np.arange(w)])
    horizons = z[starts[:, None] + w + np.arange(h)]
    with np.errstate(over="ignore"):
        if exp is not None:
            horizons = np.ldexp(horizons, -exp[:, None])
        targets = (horizons - mu[:, None]) / sd[:, None]
    if not np.all(np.isfinite(targets)):
        raise NonFiniteError("a horizon overflows the float range at its window's scale")
    return zn, targets


def _readout(design: np.ndarray, targets: np.ndarray, config: ForecasterConfig) -> np.ndarray:
    """The (features, horizon) ridge readout from design rows to targets."""
    readout = evo.ridge_fit(design, targets, config.ridge_lambda).T
    # horizon values far beyond their window's spread leave finite inputs
    # with a non-finite fit
    if not np.all(np.isfinite(readout)):
        raise NonFiniteError("the fit overflows the float range at this series' scale")
    return readout


def _fit_frequency(arr: np.ndarray, model: FittedForecaster):
    """Fit all channels' ``frequency`` evolvers (``_stacked``) and serving
    maps from two thin QR factors of each channel's windows; the (B, S, D)
    stack is never built.

    Mode m of scale s maps one patch coordinate's L patch values u to the
    N-vector ``K_s[m] @ u``, where K_s is the DFT over positions of the
    front operator's rows of that scale.  So the evolution fit sees the
    windows only through the Gram matrix of ``[U_b | U_{b+1}]``, the
    ((B-1) * D, 2L) matrix of consecutive windows' coordinate sequences,
    and the readout fit, whose design is ``Zn @ stage map``, only through
    the Gram matrix of ``[Zn | T]``.  The R factors of both keep those Gram
    matrices, so the ridge fits run on at most 2L and window + horizon rows
    and have the minimizers of the fits on all rows.  One ``_stage_map``
    call, once every channel's evolvers are fit, serves all readout fits,
    and each channel's (window, horizon) serving map, the readout the
    model keeps, is its stage map times its fitted (L' * D, horizon)
    readout.  Serving maps beyond the float range raise NonFiniteError."""
    config, sh = model.config, model.shapes
    w, length = config.window, sh.n_patches
    kernels = [evo.fft_modes(model.front[rows].reshape(n, sh.order, length), modes)
               for n, rows, modes in zip(sh.scale_lens, sh.scale_rows, sh.scale_modes)]
    evolvers, r_os = [], []
    for c in range(arr.shape[1]):
        zn, targets = _windows(arr[:, c], config)
        coords = np.swapaxes(zn[:, model.index], 1, 2)
        pairs = np.concatenate([coords[:-1], coords[1:]], axis=2)  # (B - 1, D, 2L)
        r_e = np.linalg.qr(pairs.reshape(-1, 2 * length), mode="r")
        evolvers.append([
            evo.fit_spectral_operators(np.einsum("rj,mnj->rmn", r_e[:, :length], k),
                                       np.einsum("rj,mnj->rmn", r_e[:, length:], k),
                                       n, config.ridge_lambda)
            for n, k in zip(sh.scale_lens, kernels)
        ])
        r_os.append(np.linalg.qr(np.concatenate([zn, targets], axis=1), mode="r"))
    evolvers = _stacked(evolvers, config)
    stage_maps = _stage_map(evolvers, model)
    readouts = np.stack([_readout(r_o[:, :w] @ stage_map, r_o[:, w:], config)
                         for r_o, stage_map in zip(r_os, stage_maps)])
    # finite stage maps and readouts can still compose to an overflowing
    # map; that is found below, not printed
    with np.errstate(over="ignore", invalid="ignore"):
        serving = stage_maps @ readouts
    if not np.all(np.isfinite(serving)):
        raise NonFiniteError("the serving maps overflow the float range")
    return evolvers, serving


def _fit_channel(z: np.ndarray, model: FittedForecaster, channel_index: int):
    """Fit one channel's ``direct`` or ``hopfield`` evolvers, one per scale,
    and readout without ever holding its whole (B, S, D) stack.

    k-means needs every source position of a scale, so each scale's valid
    positions of all windows are gathered from stacks built ``FIT_BLOCK``
    windows at a time, and freed before the next scale.  The readout design
    is built block by block too.  A window's stack and feature row are
    products of their own (``_stack``, ``_features``), so the blocks give
    the whole batch's rows bit for bit."""
    config, sh = model.config, model.shapes
    zn, targets = _windows(z, config)
    blocks = [slice(i, i + FIT_BLOCK) for i in range(0, len(zn), FIT_BLOCK)]

    evolvers = []
    for si, (length, rows) in enumerate(zip(sh.scale_lens, sh.scale_rows)):
        keep = _valid_positions(length, sh.padded // length, sh.pad)
        valid = np.empty((len(zn), len(keep), sh.d, sh.order))  # (B, V, D, N)
        for block in blocks:
            valid[block] = _positions(_stack(zn[block], model)[:, rows], sh.order)[:, keep]
        # a position pairs with its place in the next window, window-major
        src, dst = (v.reshape(-1, sh.d, sh.order) for v in (valid[:-1], valid[1:]))
        seed = derive_seed(config.seed, 16 * channel_index + si + 2)
        part = evo.kmeans_partition(src.reshape(len(src), -1),
                                    min(config.n_clusters, len(src)), seed=seed)
        if config.evolution_strategy == "direct":
            evolvers.append(
                evo.fit_direct_operators(src, part, config.ridge_lambda, targets=dst)
            )
        else:
            evolvers.append(
                evo.fit_hopfield_evolution(src, part, config.hopfield_beta, targets=dst)
            )
        del valid, src, dst  # one scale's positions at a time
    stacked = _stacked([evolvers], config)
    design = np.concatenate([_features(_stack(zn[block], model)[None], stacked, model)[0]
                             for block in blocks])
    return evolvers, _readout(design, targets, config)


def fit(config: ForecasterConfig, series) -> FittedForecaster:
    """Fit per-channel evolution operators and readouts on sliding windows;
    the model holds them stacked over the channels.

    The training windows are the ones ``_windows`` states: every
    ``patch_len`` samples, at most ``max_train_windows`` of the most recent
    ones.  A ``frequency`` fit reduces each channel's windows to two
    thin QR factors, solves each ridge on their rows and keeps each
    channel's serving map as its readout; ``direct`` and
    ``hopfield`` fits run each channel's windows through the pipeline in
    blocks of ``FIT_BLOCK`` windows, never holding its whole stack, and
    stack the channels' maps once all are fit.  Every ridge
    is solved by a thin SVD, and with
    ``ridge_lambda=0`` a rank-deficient system raises SingularSystemError
    (normalized windows have rank at most window - 1).  With
    ``embedding=None`` the delay/dimension are selected from
    the data, capped so one context window always holds at least two
    patches; a constant series then raises DegenerateSeriesError, while a
    manually supplied embedding turns a constant series into an exact
    constant forecast (zero features, the window mean is returned).  The
    returned model's config holds the embedding it was fit with, so
    ``fit(model.config, x)`` behaves the same for a fitted model and for the
    same model loaded from its document.  Fitting a series scaled by a
    power of two gives the same model (``_normalize``).  A series with NaN
    or inf, or finite values whose normalized horizon or fit overflows the
    float range, raises NonFiniteError.
    """
    arr = _finite_2d(series, "series")
    n, n_channels = arr.shape
    w, h = config.window, config.horizon
    # this leaves room for at least two training windows
    if n < w + h + config.patch_len:
        raise TooShortError("series shorter than one training window + horizon")

    if config.embedding is None:
        cap_tau = max(1, (w - 2 * config.patch_len) // (AUTO_MAX_M - 1))
        config = replace(config, embedding=select_embedding(
            arr,
            max_tau=max(1, min(cap_tau, n // 4 - 1)),
            max_m=AUTO_MAX_M,
        ))
    # the channels are fit on the stage operators of a channel-less model;
    # the returned model is built from them
    operators = FittedForecaster(config)
    if config.evolution_strategy == "frequency":
        evolvers, readouts = _fit_frequency(arr, operators)
    else:
        evolvers, readouts = zip(*(_fit_channel(arr[:, c], operators, c)
                                   for c in range(n_channels)))
        evolvers, readouts = _stacked(evolvers, config), np.stack(readouts)
    return FittedForecaster(config, evolvers, readouts)


def predict(model: FittedForecaster, context) -> ForecastResult:
    """Deterministic forward pass on the trailing window of the context.

    Each channel's window is normalized once and its normalized forecast
    denormalized once.  All channels run in one pass, with no loop over
    them: a ``frequency`` model takes the forecasts from its readouts, the
    serving maps, in one batched product; ``direct`` and ``hopfield`` models
    run the stages once for all channels (``_stack``, one ``_features``
    call on the channel-stacked evolvers, one product with the stacked
    readouts), and each channel's row is the one the fit built its design
    from.  A
    context shorter than the window raises TooShortError, as a short series
    does in ``fit``, and one with another channel count ShapeMismatchError.
    NaN or inf in the context, and a forecast that overflows the float range,
    raise NonFiniteError.  ``evaluate`` scores a forecast against the truth.
    """
    arr = _finite_2d(context, "context")
    w = model.config.window
    if arr.shape[0] < w:
        raise TooShortError(f"context needs at least {w} samples")
    if arr.shape[1] != model.n_channels:
        raise ShapeMismatchError(
            f"model has {model.n_channels} channels, context has {arr.shape[1]}"
        )
    # one contiguous row per channel, laid out like the fit-time windows
    zn, mu, sd = _normalize(np.ascontiguousarray(arr[-w:].T))
    zn = zn[:, None, :]  # (C, 1, window): one window per channel
    # an overflowing forecast is found below, not printed
    with np.errstate(over="ignore", invalid="ignore"):
        if model.config.evolution_strategy == "frequency":
            normed = zn @ model.readouts
        else:
            normed = _features(_stack(zn, model), model.evolvers, model) @ model.readouts
        out = (mu[:, None] + sd[:, None] * normed[:, 0]).T
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("the forecast overflows the float range")
    return ForecastResult(predictions=out)


def evaluate(predictions, truth) -> dict:
    """MSE and MAE averaged over horizon and channels.

    NaN or inf in either array, or errors whose squares overflow the float
    range, raise NonFiniteError; empty arrays raise EmptyInputError.
    """
    p = _finite_2d(predictions, "predictions")
    t = _finite_2d(truth, "truth")
    if p.shape != t.shape:
        raise ShapeMismatchError(f"predictions {p.shape} vs truth {t.shape}")
    if p.size == 0:
        raise EmptyInputError("nothing to evaluate")
    # an overflowing difference or square is found below, not printed
    with np.errstate(over="ignore"):
        err = p - t
        mse = float(np.mean(err**2))
    if not np.isfinite(mse):
        raise NonFiniteError("prediction errors overflow the float range")
    return {"mse": mse, "mae": float(np.mean(np.abs(err)))}


def rollout(
    model: FittedForecaster,
    context,
    horizon_total: int,
    truth=None,
    alpha: float = 0.0,
) -> np.ndarray:
    """Autoregressive multi-window forecast.

    Each segment is a ``predict`` on the trailing window, and the next
    window ends with the segment.  When ``truth`` is given with alpha > 0,
    it holds the true continuation of the context, and the samples appended
    to the window are the blend ``(1 - alpha) * segment + alpha * truth``
    of the same steps; the returned forecast itself stays unblended.
    ``horizon_total < 1`` or an alpha outside [0, 1] raises ValueError.
    Truth with NaN or inf raises NonFiniteError whatever alpha is; with
    alpha > 0, truth that does not cover every segment fed to a window
    (``(ceil(horizon_total / horizon) - 1) * horizon`` samples: the last
    segment feeds none) raises TooShortError and truth with another channel
    count ShapeMismatchError.
    """
    if horizon_total < 1:
        raise ValueError("horizon_total must be >= 1")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    w, h = model.config.window, model.config.horizon
    window = _finite_2d(context, "context")[-w:]
    truth_arr = None if truth is None else _finite_2d(truth, "truth")
    n_segments = -(-horizon_total // h)
    preds = [predict(model, window).predictions]  # the context's errors come first
    forced = truth_arr is not None and alpha > 0.0
    if forced and truth_arr.shape[0] < (n_segments - 1) * h:
        raise TooShortError("truth shorter than the segments it feeds")
    if forced and truth_arr.shape[1] != model.n_channels:
        raise ShapeMismatchError(
            f"model has {model.n_channels} channels, truth has {truth_arr.shape[1]}"
        )
    for k in range(1, n_segments):
        feed = preds[-1]
        if forced:
            feed = (1.0 - alpha) * feed + alpha * truth_arr[(k - 1) * h : k * h]
        window = np.concatenate([window, feed], axis=0)[-w:]
        preds.append(predict(model, window).predictions)
    return np.concatenate(preds, axis=0)[:horizon_total]


def persistence_forecast(context, horizon: int) -> np.ndarray:
    """Repeat the last observed value; the minimal sanity baseline."""
    arr = _as_2d(context)
    return np.repeat(arr[-1:, :], horizon, axis=0)


def global_mean_forecast(train_series, horizon: int) -> np.ndarray:
    arr = _as_2d(train_series)
    return np.repeat(arr.mean(axis=0, keepdims=True), horizon, axis=0)


# ---------------------------------------------------------------------------
# serialization


def _encoded(arr: np.ndarray, what: str) -> str:
    """A fitted array as a version-5 document entry: base64 of its
    little-endian float64 (complex128 if complex) bytes in C order.  A
    non-finite entry raises ValueError, as ``json.dumps`` does for NaN."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite {what} cannot be written")
    little = arr.astype("<c16" if np.iscomplexobj(arr) else "<f8", copy=False)
    return base64.b64encode(little.tobytes()).decode("ascii")


def _evolver_doc(ev, channel: int, config: ForecasterConfig) -> dict:
    """Channel ``channel``'s fitted arrays of a channel-stacked evolver of
    the config's strategy, sliced out of the layout ``_stacked`` builds; its
    kind, scalars and shapes are the config's."""
    if config.evolution_strategy == "frequency":
        return {"doc": {"mode_ops": _encoded(ev.mode_ops[:, channel, 0, 0], "mode_ops")}}
    if config.evolution_strategy == "direct":
        return {"centroids": _encoded(ev.centroids[channel], "centroids"),
                "operators": _encoded(ev.operators[channel], "operators")}
    return {"keys": _encoded(ev.keys[channel], "keys"),
            "values": _encoded(ev.values[channel], "values")}


def _doc_floats(value, what: str, shape: tuple, dtype=float) -> np.ndarray:
    """A document array of ``shape``, whose leading ``None`` stands for the
    cluster count that the array sets: one base64 string of its
    little-endian ``dtype`` bytes in C order.  Anything else, another
    length, or NaN or inf bytes raise ModelFormatError."""
    if type(value) is not str:
        raise ModelFormatError(f"{what} is not a base64 string")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a character beyond ASCII
        raise ModelFormatError(f"{what} is not base64: {exc}") from exc
    item = np.dtype(dtype).newbyteorder("<")
    row = item.itemsize * int(np.prod(shape[1:]))
    # at least one cluster, so that no bytes fail the length check
    shape = (max(len(raw) // row, 1),) + shape[1:] if shape[0] is None else shape
    if len(raw) != row * shape[0]:
        raise ModelFormatError(f"{what} holds {len(raw)} bytes, the model needs "
                               f"{shape} {item.name} entries")
    arr = np.frombuffer(raw, item).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"non-finite {what} in model document")
    return arr


def _evolver_from_doc(doc: dict, scale: int, config: ForecasterConfig, sh: ShapeInfo):
    """The evolver of scale ``scale``, of the config's strategy: its arrays
    are read in the shapes the config implies, its scalars come from the
    config.  An evolver of another strategy lacks the keys read here."""
    n, width = sh.order, sh.d * sh.order  # width: a position's (D, N) state
    if config.evolution_strategy == "frequency":
        ops = _doc_floats(doc["doc"]["mode_ops"], "mode_ops", (sh.scale_modes[scale], n, n),
                          complex)
        return evo.SpectralEvolutionModel(mode_ops=ops, seq_len=sh.scale_lens[scale])
    if config.evolution_strategy == "direct":
        centroids = _doc_floats(doc["centroids"], "centroids", (None, width))
        return evo.DirectEvolutionModel(
            centroids=centroids,
            operators=_doc_floats(doc["operators"], "operators", (len(centroids), n, n)),
        )
    keys = _doc_floats(doc["keys"], "keys", (None, width))
    return evo.HopfieldEvolutionModel(
        keys=keys,
        values=_doc_floats(doc["values"], "values", keys.shape),
        beta=config.hopfield_beta,
    )


def model_to_json(model: FittedForecaster) -> str:
    cfg = model.config
    doc = {
        "v": 5,
        # the embedding the model was fit with is stored on its own below
        "config": {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "embedding"},
        "embedding": {"m": model.embedding.m, "tau": model.embedding.tau},
        "channels": [
            {"evolvers": [_evolver_doc(ev, c, cfg) for ev in model.evolvers],
             "readout": _encoded(readout, "readout")}
            for c, readout in enumerate(model.readouts)
        ],
    }
    return json.dumps(doc, allow_nan=False)


def model_from_json(text: str) -> FittedForecaster:
    """Rebuild a model from its version-5 JSON document, the one
    ``model_to_json`` writes; any other text raises ModelFormatError.

    The document stores each fitted array as one base64 string of its
    little-endian float64 bytes in C order (complex128 for ``frequency``
    mode operators), with the shape that the config implies: a readout is
    (window, horizon) under ``frequency``, the serving map, and
    (L' * D, horizon) otherwise; the cluster count of a ``direct``/
    ``hopfield`` evolver follows from the byte length.  An array that is
    not such a string, of another length, or that holds NaN or inf bytes
    raises ModelFormatError, as do a missing or unknown entry, a non-finite
    config number, a config and embedding that leave no full patch in the
    window, a document with no channels, and channels whose cluster counts
    differ at a scale.  Finite maps whose forecast overflows load, and
    ``predict`` raises NonFiniteError on that forecast.  Only version 5 is
    read: a document of versions 1 to 3, written before the arrays were
    base64, or of version 4, whose ``frequency`` readouts the load composed
    into serving maps, raises a ModelFormatError that asks for a refit."""
    try:
        doc = json.loads(text)
        # true == 1 and 2.0 == 2, so the type is checked too
        version = doc.get("v") if isinstance(doc, dict) else None
        if type(version) is int and 1 <= version <= 4:
            raise ModelFormatError(f"version-{version} model documents are no longer read: "
                                   "refit the model")
        if type(version) is not int or version != 5:
            raise ModelFormatError("not a version-5 model document")
        return _model_from_doc(doc)
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ModelFormatError(f"malformed model document: {exc!r}") from exc
    # well-formed entries that make no model: pipeline_shapes, _stacked and
    # the front operator find these
    except (TooShortError, ShapeMismatchError, NonFiniteError) as exc:
        raise ModelFormatError(f"model document does not serve: {exc}") from exc


def _model_from_doc(doc: dict) -> FittedForecaster:
    embedding = EmbeddingParams(m=doc["embedding"]["m"], tau=doc["embedding"]["tau"])
    config = ForecasterConfig(embedding=embedding, **doc["config"])
    sh = pipeline_shapes(config)
    # a frequency readout is the serving map, from the window's samples
    rows = config.window if config.evolution_strategy == "frequency" else sh.n_patches * sh.d
    evolvers, readouts = [], []
    for ch in doc["channels"]:
        if len(ch["evolvers"]) != len(sh.scale_lens):
            raise ModelFormatError(
                f"{len(ch['evolvers'])} evolvers for {len(sh.scale_lens)} scales"
            )
        evolvers.append([_evolver_from_doc(e, s, config, sh)
                         for s, e in enumerate(ch["evolvers"])])
        readouts.append(_doc_floats(ch["readout"], "readout", (rows, config.horizon)))
    if not readouts:
        raise ModelFormatError("model document has no channels")
    return FittedForecaster(config, _stacked(evolvers, config), np.stack(readouts))


def save_model(model: FittedForecaster, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))


def load_model(path) -> FittedForecaster:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())
