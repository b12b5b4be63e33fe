import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from attraos import chaos
from attraos.errors import NonFiniteError, ShapeMismatchError


def lorenz63_rhs(state, params):
    """The Lorenz63 vector field as one numpy 3-vector, the oracles' form."""
    x, y, z = state
    return np.array(
        [
            params.sigma * (y - x),
            x * (params.rho - z) - y,
            x * y - params.beta * z,
        ]
    )


def rk4_reference(rhs, x0, dt, steps):
    """Plain-loop RK4 used as the fine-step oracle."""
    x = np.asarray(x0, dtype=float).copy()
    out = [x.copy()]
    for _ in range(steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(x.copy())
    return np.asarray(out)


def gather_lorenz96_rhs(forcing_f):
    """The Lorenz96 field with x_{i+1}, x_{i-2} and x_{i-1} gathered by index."""
    def rhs(state):
        i = np.arange(state.size)
        d = state.size
        return (state[(i + 1) % d] - state[(i - 2) % d]) * state[(i - 1) % d] - state + forcing_f
    return rhs


def assert_integrates_as_reference(simulate, rhs, x0, dt, steps):
    """``simulate()`` gives the reference RK4 states bit for bit, or, where
    they leave the float range, raises naming the reference's first
    non-finite row."""
    with np.errstate(over="ignore", invalid="ignore"):
        ref = rk4_reference(rhs, x0, dt, steps)
    finite = np.isfinite(ref).all(axis=1)
    if finite.all():
        assert np.array_equal(simulate(), ref)
    else:
        step = np.argmin(finite)
        with pytest.raises(NonFiniteError, match=f"^integration blew up at step {step}$"):
            simulate()


class TestLorenz63:
    def test_origin_is_fixed_point(self):
        states = chaos.simulate_lorenz63(chaos.Lorenz63Params(), [0, 0, 0], 0.013, 500)
        assert np.all(states == 0.0)

    def test_attractor_bounds(self):
        states = chaos.simulate_lorenz63(chaos.Lorenz63Params(), [1, 1, 1], 0.01, 10000)
        assert np.all(np.isfinite(states))
        assert np.all(np.abs(states[:, 2]) < 60)

    def test_one_step_matches_fine_oracle(self):
        # frozen oracle: 1000 steps of dt=1e-5 RK4 compose one dt=0.01 step
        p = chaos.Lorenz63Params()
        fine = rk4_reference(lambda s: lorenz63_rhs(s, p), [1.0, 1.0, 1.0], 1e-5, 1000)
        coarse = chaos.simulate_lorenz63(p, [1.0, 1.0, 1.0], 0.01, 1)
        assert np.allclose(coarse[1], fine[-1], atol=1e-6)

    def test_rk4_fourth_order_convergence(self):
        p = chaos.Lorenz63Params()
        ref = rk4_reference(lambda s: lorenz63_rhs(s, p), [1.0, 1.0, 1.0], 1e-6 * 50, 20000)[-1]
        # 1 time unit at dt and dt/2 (5e-5 reference step keeps runtime sane)
        e = []
        for dt in (0.02, 0.01):
            states = chaos.simulate_lorenz63(p, [1.0, 1.0, 1.0], dt, int(round(1.0 / dt)))
            e.append(np.linalg.norm(states[-1] - ref))
        assert e[0] / e[1] >= 8.0

    def test_determinism(self):
        a = chaos.simulate_lorenz63(chaos.Lorenz63Params(), [1, 1, 1], 0.01, 200)
        b = chaos.simulate_lorenz63(chaos.Lorenz63Params(), [1, 1, 1], 0.01, 200)
        assert np.array_equal(a, b)

    def test_blowup_raises(self):
        with pytest.raises(NonFiniteError):
            chaos.simulate_lorenz63(chaos.Lorenz63Params(), [1e150, 1e150, 1e150], 10.0, 50)

    def test_blowup_names_the_first_non_finite_step(self):
        # steps 1 to 3 stay finite; the step count is the vector integrator's
        with pytest.raises(NonFiniteError) as info:
            chaos.simulate_lorenz63(chaos.Lorenz63Params(), [1.0, 1.0, 1.0], 0.5, 200)
        assert str(info.value) == "integration blew up at step 4"

    @settings(max_examples=40, deadline=None)
    @given(
        sigma=st.floats(1.0, 20.0),
        rho=st.floats(1.0, 40.0),
        beta=st.floats(0.5, 5.0),
        x0=arrays(float, 3, elements=st.floats(-40.0, 40.0)),
        dt=st.floats(1e-4, 0.1),
    )
    def test_float_loop_equals_vector_rk4(self, sigma, rho, beta, x0, dt):
        p = chaos.Lorenz63Params(sigma=sigma, rho=rho, beta=beta)
        assert_integrates_as_reference(lambda: chaos.simulate_lorenz63(p, x0, dt, 300),
                                       lambda s: lorenz63_rhs(s, p), x0, dt, 300)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            chaos.simulate_lorenz63(chaos.Lorenz63Params(), [1, 1, 1], -0.1, 10)
        with pytest.raises(ValueError):
            chaos.simulate_lorenz63(chaos.Lorenz63Params(), [1, 1, 1], 0.1, 0)


class TestLorenz96:
    def test_zero_forcing_zero_state(self):
        p = chaos.Lorenz96Params(forcing_f=0.0, dim=8)
        states = chaos.simulate_lorenz96(p, np.zeros(8), 0.05, 100)
        assert np.all(states == 0.0)

    def test_constant_state_is_equilibrium(self):
        p = chaos.Lorenz96Params(forcing_f=8.0, dim=12)
        states = chaos.simulate_lorenz96(p, np.full(12, 8.0), 0.01, 1000)
        assert np.all(states == 8.0)

    def test_perturbed_f8_bounded_nonperiodic(self):
        p = chaos.Lorenz96Params(forcing_f=8.0, dim=40)
        states = chaos.simulate_lorenz96(p, chaos.default_lorenz96_x0(p), 0.01, 30000)
        settled = states[1000:]
        assert np.all(np.isfinite(settled))
        assert settled.min() >= -15 and settled.max() <= 20
        # trajectory never revisits its start exactly (non-periodic)
        d = np.linalg.norm(settled[1:] - settled[0], axis=1)
        assert d.min() > 1e-6

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            chaos.simulate_lorenz96(chaos.Lorenz96Params(dim=3), np.zeros(3), 0.01, 10)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(4, 64),
        forcing_f=st.floats(-10.0, 20.0),
        dt=st.floats(1e-3, 0.2),
    )
    def test_padded_buffer_equals_gather_field(self, data, dim, forcing_f, dt):
        p = chaos.Lorenz96Params(forcing_f=forcing_f, dim=dim)
        x0 = data.draw(arrays(float, dim, elements=st.floats(-20.0, 20.0)))
        assert_integrates_as_reference(lambda: chaos.simulate_lorenz96(p, x0, dt, 200),
                                       gather_lorenz96_rhs(forcing_f), x0, dt, 200)

    def test_blowup_names_the_first_non_finite_step(self):
        x0 = np.full(8, 8.0)
        x0[-1] = 100.0
        with pytest.raises(NonFiniteError) as info:
            chaos.simulate_lorenz96(chaos.Lorenz96Params(dim=8), x0, 0.5, 2000)
        assert str(info.value) == "integration blew up at step 3"

    def test_trajectory_matches_roll_formula(self):
        # the right-hand side as three np.roll calls, the gather's reference
        def roll_rhs(state):
            return (np.roll(state, -1) - np.roll(state, 2)) * np.roll(state, 1) - state + 8.0

        p = chaos.Lorenz96Params(forcing_f=8.0, dim=40)
        x0 = chaos.default_lorenz96_x0(p)
        states = chaos.simulate_lorenz96(p, x0, 0.01, 2000)
        assert np.array_equal(states, rk4_reference(roll_rhs, x0, 0.01, 2000))


class TestObserve:
    def test_identity_map(self):
        states = chaos.simulate_lorenz63(chaos.Lorenz63Params(), [1, 1, 1], 0.01, 50)
        out = chaos.observe(states, chaos.ObservationMap(weights=np.eye(3)))
        assert np.array_equal(out, states)

    def test_zero_weights(self):
        states = chaos.simulate_lorenz63(chaos.Lorenz63Params(), [1, 1, 1], 0.01, 50)
        out = chaos.observe(states, chaos.ObservationMap(weights=np.zeros((2, 3))))
        assert np.all(out == 0.0)

    def test_seeded_map_is_reproducible(self):
        p = chaos.Lorenz96Params(dim=40)
        states = chaos.simulate_lorenz96(p, chaos.default_lorenz96_x0(p), 0.01, 100)
        a = chaos.observe(states, chaos.ObservationMap.random(3, 40, seed=99))
        b = chaos.observe(states, chaos.ObservationMap.random(3, 40, seed=99))
        assert np.array_equal(a, b)

    def test_dimension_checks(self):
        states = chaos.simulate_lorenz63(chaos.Lorenz63Params(), [1, 1, 1], 0.01, 10)
        with pytest.raises(ShapeMismatchError):
            chaos.observe(states, chaos.ObservationMap(weights=np.zeros((2, 5))))
        with pytest.raises(ShapeMismatchError):
            chaos.ObservationMap.random(5, 3, seed=0)

    @pytest.mark.parametrize("obs_dim", [0, -1])
    def test_random_map_needs_an_observed_channel(self, obs_dim):
        with pytest.raises(ValueError, match="obs_dim"):
            chaos.ObservationMap.random(obs_dim, 3, seed=0)


@settings(max_examples=20, deadline=None)
@given(
    sigma=st.floats(1.0, 20.0),
    rho=st.floats(1.0, 40.0),
    beta=st.floats(0.5, 5.0),
)
def test_equilibria_preserved_for_any_params(sigma, rho, beta):
    # zero vector field => bitwise-constant trajectory
    p = chaos.Lorenz63Params(sigma=sigma, rho=rho, beta=beta)
    states = chaos.simulate_lorenz63(p, [0.0, 0.0, 0.0], 0.02, 64)
    assert np.all(states == 0.0)


def test_drop_transient():
    states = chaos.simulate_lorenz63(chaos.Lorenz63Params(), [1, 1, 1], 0.01, 100)
    cut = chaos.drop_transient(states, 40)
    assert cut.shape[0] == 61
    assert np.array_equal(cut[0], states[40])
