"""Reference chaotic systems (Lorenz63, Lorenz96) with RK4 integration.

Integration is classical fixed-step 4th-order Runge-Kutta, which keeps
trajectories fully deterministic and preserves equilibria exactly (a zero
vector field adds exactly 0.0 per step).  Lorenz63 steps on Python floats,
Lorenz96 on numpy vectors whose neighbours are slices of one padded buffer;
both keep the operation order of the textbook vector form, and a state that
leaves the float range raises NonFiniteError naming the step.  The simulate
functions return the (steps + 1, dim) state array, row k holding step k at
the caller's uniform step dt.  A seeded random linear map turns a
high-dimensional trajectory into a lower-dimensional observed series.  An
initial state or observation map of the wrong shape raises
ShapeMismatchError.
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


def _check_step(dt: float, steps: int) -> None:
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be >= 1")


def _finite_states(states: np.ndarray) -> np.ndarray:
    """The states, once no row after the initial one holds inf or NaN; row k
    holds step k, so the first such row names the step that blew up."""
    finite = np.isfinite(states[1:]).all(axis=1)
    if not finite.all():
        raise NonFiniteError(f"integration blew up at step {int(np.argmin(finite)) + 1}")
    return states


def _lorenz63_rk4(params: Lorenz63Params, x0: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """RK4 on Python floats, one 3-vector stage per line, in the operation
    order of the vector form: stages ``x + 0.5 * dt * k``, the update
    ``x + (dt / 6.0) * (k1 + 2 k2 + 2 k3 + k4)`` summed left to right.  Float
    arithmetic overflows to inf without raising, as numpy's does."""
    s, r, b = float(params.sigma), float(params.rho), float(params.beta)
    h, c = 0.5 * dt, dt / 6.0
    states = np.empty((steps + 1, 3))
    states[0] = x0
    x, y, z = map(float, x0)
    for k in range(1, steps + 1):
        # the field is (s (y - x), x (r - z) - y, x y - b z)
        a1, b1, c1 = s * (y - x), x * (r - z) - y, x * y - b * z
        u, v, w = x + h * a1, y + h * b1, z + h * c1
        a2, b2, c2 = s * (v - u), u * (r - w) - v, u * v - b * w
        u, v, w = x + h * a2, y + h * b2, z + h * c2
        a3, b3, c3 = s * (v - u), u * (r - w) - v, u * v - b * w
        u, v, w = x + dt * a3, y + dt * b3, z + dt * c3
        a4, b4, c4 = s * (v - u), u * (r - w) - v, u * v - b * w
        x = x + c * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        y = y + c * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        z = z + c * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        states[k] = x, y, z
    return states


def _lorenz96_rk4(forcing_f: float, x0: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """Vector RK4 of dx_i/dt = (x_{i+1} - x_{i-2}) x_{i-1} - x_i + F.

    Each stage state is written into the middle of one padded buffer, whose
    first two cells repeat the ring's last two sites and whose last cell its
    first, so x_{i+1}, x_{i-2} and x_{i-1} are slices of it."""
    dim = x0.size
    ring = np.empty(dim + 3)
    at, ip1, im2, im1 = ring[2:-1], ring[3:], ring[:-3], ring[1:-2]

    def field():
        ring[:2], ring[-1] = ring[-3:-1], at[0]
        return (ip1 - im2) * im1 - at + forcing_f

    states = np.empty((steps + 1, dim))
    states[0] = x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            at[...] = x
            k1 = field()
            np.add(x, 0.5 * dt * k1, out=at)
            k2 = field()
            np.add(x, 0.5 * dt * k2, out=at)
            k3 = field()
            np.add(x, dt * k3, out=at)
            k4 = field()
            x = states[k] = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return states


def simulate_lorenz63(
    params: Lorenz63Params, x0, dt: float, steps: int
) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (3,):
        raise ShapeMismatchError("Lorenz63 needs a 3-vector initial state")
    _check_step(dt, steps)
    return _finite_states(_lorenz63_rk4(params, x0, dt, steps))


def simulate_lorenz96(
    params: Lorenz96Params, x0, dt: float, steps: int
) -> np.ndarray:
    if params.dim < 4:
        raise ValueError("Lorenz96 needs dim >= 4 (coupling reaches i-2..i+1)")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (params.dim,):
        raise ShapeMismatchError(
            f"initial state has shape {x0.shape}, expected ({params.dim},)"
        )
    _check_step(dt, steps)
    return _finite_states(_lorenz96_rk4(params.forcing_f, x0, dt, steps))


def observe(states: np.ndarray, omap: ObservationMap) -> np.ndarray:
    """Observed series (steps+1, obs_dim): each row is weights @ state."""
    if omap.weights.shape[1] != states.shape[1]:
        raise ShapeMismatchError(
            f"map expects state_dim {omap.weights.shape[1]}, got {states.shape[1]}"
        )
    return states @ omap.weights.T


def drop_transient(states: np.ndarray, n: int) -> np.ndarray:
    """Discard the first n states (transient toward the attractor)."""
    if n < 0 or n >= states.shape[0]:
        raise ValueError("transient length out of range")
    return states[n:]


def default_lorenz96_x0(params: Lorenz96Params) -> np.ndarray:
    """Constant-F state with a symmetry-breaking kick of 0.01 on component 0."""
    x0 = np.full(params.dim, params.forcing_f, dtype=float)
    x0[0] += 0.01
    return x0
