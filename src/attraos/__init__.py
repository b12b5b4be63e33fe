"""Chaotic time-series toolkit: phase-space reconstruction, multi-resolution
polynomial-projection state memory, and attractor-aware local forecasting."""

from . import chaos, embedding, evolution, forecaster, legendre, lyapunov, scan, wavelet
from .embedding import EmbeddingParams, delay_embed, patch, select_embedding
from .errors import AttraosError
from .forecaster import ForecasterConfig, FittedForecaster, evaluate, fit, predict, rollout

__all__ = [
    "AttraosError",
    "EmbeddingParams",
    "FittedForecaster",
    "ForecasterConfig",
    "chaos",
    "delay_embed",
    "embedding",
    "evaluate",
    "evolution",
    "fit",
    "forecaster",
    "legendre",
    "lyapunov",
    "patch",
    "predict",
    "rollout",
    "scan",
    "select_embedding",
    "wavelet",
]
