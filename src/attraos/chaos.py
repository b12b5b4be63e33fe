"""Reference chaotic systems (Lorenz63, Lorenz96) with RK4 integration.

Integration is classical fixed-step 4th-order Runge-Kutta, which keeps
trajectories fully deterministic and preserves equilibria exactly (a zero
vector field adds exactly 0.0 per step).  A seeded random linear map turns a
high-dimensional trajectory into a lower-dimensional observed series.  An
initial state or observation map of the wrong shape raises ShapeMismatchError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError


@dataclass(frozen=True)
class Lorenz63Params:
    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0


@dataclass(frozen=True)
class Lorenz96Params:
    forcing_f: float = 8.0
    dim: int = 40


@dataclass(frozen=True)
class Trajectory:
    """Integrated states, shape (steps+1, state_dim), at the caller's uniform step dt."""

    states: np.ndarray

    @property
    def state_dim(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class ObservationMap:
    """Linear observation weights (obs_dim x state_dim)."""

    weights: np.ndarray

    @classmethod
    def random(cls, obs_dim: int, state_dim: int, seed: int) -> "ObservationMap":
        if obs_dim < 1:
            raise ValueError(f"obs_dim must be >= 1, got {obs_dim}")
        if obs_dim > state_dim:
            raise ShapeMismatchError(
                f"obs_dim {obs_dim} exceeds state_dim {state_dim}"
            )
        rng = np.random.default_rng(seed)
        w = rng.uniform(-1.0, 1.0, size=(obs_dim, state_dim))
        return cls(weights=w)


def lorenz63_rhs(state: np.ndarray, params: Lorenz63Params) -> np.ndarray:
    x, y, z = state
    return np.array(
        [
            params.sigma * (y - x),
            x * (params.rho - z) - y,
            x * y - params.beta * z,
        ]
    )


def _ring_neighbours(dim: int):
    """Indices of x_{i+1}, x_{i-2} and x_{i-1} on a ring of dim sites."""
    i = np.arange(dim)
    return (i + 1) % dim, (i - 2) % dim, (i - 1) % dim


def _lorenz96_field(state: np.ndarray, forcing_f: float, neighbours) -> np.ndarray:
    # cyclic coupling: dx_i/dt = (x_{i+1} - x_{i-2}) x_{i-1} - x_i + F
    ip1, im2, im1 = neighbours
    return (state[ip1] - state[im2]) * state[im1] - state + forcing_f


def _rk4(rhs, x0: np.ndarray, dt: float, steps: int) -> np.ndarray:
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = np.asarray(x0, dtype=float).copy()
    states = np.empty((steps + 1, x.size))
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * dt * k1)
            k3 = rhs(x + 0.5 * dt * k2)
            k4 = rhs(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)):
                raise NonFiniteError(f"integration blew up at step {k + 1}")
            states[k + 1] = x
    return states


def simulate_lorenz63(
    params: Lorenz63Params, x0, dt: float, steps: int
) -> Trajectory:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (3,):
        raise ShapeMismatchError("Lorenz63 needs a 3-vector initial state")
    return Trajectory(states=_rk4(lambda s: lorenz63_rhs(s, params), x0, dt, steps))


def simulate_lorenz96(
    params: Lorenz96Params, x0, dt: float, steps: int
) -> Trajectory:
    if params.dim < 4:
        raise ValueError("Lorenz96 needs dim >= 4 (coupling reaches i-2..i+1)")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (params.dim,):
        raise ShapeMismatchError(
            f"initial state has shape {x0.shape}, expected ({params.dim},)"
        )
    # the neighbour indices are built once, not on each of the 4 calls per step
    neighbours = _ring_neighbours(params.dim)
    return Trajectory(
        states=_rk4(lambda s: _lorenz96_field(s, params.forcing_f, neighbours), x0, dt, steps)
    )


def observe(traj: Trajectory, omap: ObservationMap) -> np.ndarray:
    """Observed series (steps+1, obs_dim): each row is weights @ state."""
    if omap.weights.shape[1] != traj.state_dim:
        raise ShapeMismatchError(
            f"map expects state_dim {omap.weights.shape[1]}, got {traj.state_dim}"
        )
    return traj.states @ omap.weights.T


def drop_transient(traj: Trajectory, n: int) -> Trajectory:
    """Discard the first n states (transient toward the attractor)."""
    if n < 0 or n >= traj.states.shape[0]:
        raise ValueError("transient length out of range")
    return Trajectory(states=traj.states[n:])


def default_lorenz96_x0(params: Lorenz96Params) -> np.ndarray:
    """Constant-F state with a symmetry-breaking kick of 0.01 on component 0."""
    x0 = np.full(params.dim, params.forcing_f, dtype=float)
    x0[0] += 0.01
    return x0
