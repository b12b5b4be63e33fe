import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attraos import scan
from attraos.errors import ShapeMismatchError


def replay_schedule(a_seq, bu_seq):
    """Independent tree-scan oracle: execute tree_schedule pair by pair.

    Pads to a power of two on the left with identity elements exactly like
    the library, but composes one (src, dst) pair at a time with plain numpy.
    """
    length = a_seq.shape[0]
    lp = 1
    while lp < length:
        lp *= 2
    pad = lp - length
    a = np.concatenate([np.ones((pad,) + a_seq.shape[1:]), a_seq], axis=0)
    b = np.concatenate([np.zeros((pad,) + bu_seq.shape[1:]), bu_seq], axis=0)
    for src, dst in scan.tree_schedule(lp):
        if src < 0:
            a_src = np.ones_like(a[dst])
            b_src = np.zeros_like(b[dst])
        else:
            a_src, b_src = a[src], b[src]
        a[dst], b[dst] = a[dst] * a_src, a[dst] * b_src + b[dst]
    return b[pad:]


class TestOperatorCompose:
    def test_identity_left(self, rng):
        q = scan.ScanElement(a=rng.uniform(0, 1, 4), b=rng.standard_normal(4))
        identity = scan.ScanElement(a=np.ones(4), b=np.zeros(4))
        out = scan.operator_compose(identity, q)
        assert np.array_equal(out.a, q.a) and np.array_equal(out.b, q.b)

    def test_scalar_example(self):
        q = scan.ScanElement(a=np.array([2.0]), b=np.array([1.0]))
        out = scan.operator_compose(q, q)
        assert out.a[0] == 4.0 and out.b[0] == 3.0

    def test_same_transition_composition(self, rng):
        a = rng.uniform(0.1, 0.9, 3)
        b1, b2 = rng.standard_normal(3), rng.standard_normal(3)
        out = scan.operator_compose(
            scan.ScanElement(a=a, b=b1), scan.ScanElement(a=a, b=b2)
        )
        assert np.allclose(out.a, a**2)
        assert np.allclose(out.b, a * b1 + b2)

    def test_matrix_elements(self, rng):
        a1, a2 = rng.standard_normal((2, 3, 3))
        b1, b2 = rng.standard_normal((2, 3))
        out = scan.operator_compose(
            scan.ScanElement(a=a1, b=b1, matrix=True),
            scan.ScanElement(a=a2, b=b2, matrix=True),
        )
        assert np.allclose(out.a, a2 @ a1)
        assert np.allclose(out.b, a2 @ b1 + b2)

    @pytest.mark.parametrize("drive_rows", [3, 2])
    def test_matrix_elements_act_on_the_drive_last_axis(self, rng, drive_rows):
        # a (d, n) drive holds d states; composing two elements is one
        # sequential step from the first element's states
        a = rng.standard_normal((2, 3, 3))
        bu = rng.standard_normal((2, drive_rows, 3))
        out = scan.operator_compose(
            scan.ScanElement(a=a[0], b=bu[0], matrix=True),
            scan.ScanElement(a=a[1], b=bu[1], matrix=True),
        )
        states = scan.sequential_scan(scan.ScanInput(a_seq=a, bu_seq=bu, matrix=True))
        assert np.allclose(out.b, states[1], rtol=1e-12, atol=1e-12)
        assert np.allclose(out.a, a[1] @ a[0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            scan.operator_compose(
                scan.ScanElement(a=np.ones(3), b=np.ones(3)),
                scan.ScanElement(a=np.ones(4), b=np.ones(4)),
            )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_associativity(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(1, 6))
        els = [
            scan.ScanElement(a=rng.uniform(-1, 1, n), b=rng.standard_normal(n))
            for _ in range(3)
        ]
        p, q, r = els
        left = scan.operator_compose(scan.operator_compose(p, q), r)
        right = scan.operator_compose(p, scan.operator_compose(q, r))
        assert np.allclose(left.a, right.a, atol=1e-12)
        assert np.allclose(left.b, right.b, atol=1e-12)


class TestSequentialScan:
    def test_zero_transition_passthrough(self, rng):
        bu = rng.standard_normal((5, 3))
        out = scan.sequential_scan(scan.ScanInput(a_seq=np.zeros((5, 3)), bu_seq=bu))
        assert np.array_equal(out, bu)

    def test_cumulative_sum(self):
        inp = scan.ScanInput(a_seq=np.ones((6, 1)), bu_seq=np.ones((6, 1)))
        assert scan.sequential_scan(inp).ravel().tolist() == [1, 2, 3, 4, 5, 6]

    def test_doubling_recurrence(self):
        inp = scan.ScanInput(a_seq=np.full((4, 1), 2.0), bu_seq=np.ones((4, 1)))
        assert scan.sequential_scan(inp).ravel().tolist() == [1.0, 3.0, 7.0, 15.0]

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            scan.ScanInput(a_seq=np.ones((3, 1)), bu_seq=np.ones((4, 1)))


class TestBlellochScan:
    def test_worked_example_l4(self):
        # scalar transition 2, unit drive: states 1, 3, 7, 15 and the final
        # composed element is (A^4, A^3 b + A^2 b + A b + b)
        inp = scan.ScanInput(a_seq=np.full((4, 1), 2.0), bu_seq=np.ones((4, 1)))
        out = scan.blelloch_scan(inp)
        assert out.ravel().tolist() == [1.0, 3.0, 7.0, 15.0]
        assert out[-1, 0] == 2**3 + 2**2 + 2 + 1

    def test_single_element(self, rng):
        bu = rng.standard_normal((1, 2))
        inp = scan.ScanInput(a_seq=rng.uniform(0, 1, (1, 2)), bu_seq=bu)
        assert np.array_equal(scan.blelloch_scan(inp), bu)

    @settings(max_examples=40, deadline=None)
    @given(l=st.integers(1, 64), seed=st.integers(0, 2**31))
    def test_matches_sequential(self, l, seed):
        rng = np.random.default_rng(seed)
        inp = scan.ScanInput(
            a_seq=rng.uniform(0, 1, (l, 4)), bu_seq=rng.standard_normal((l, 4))
        )
        seq = scan.sequential_scan(inp)
        tree = scan.blelloch_scan(inp)
        assert np.allclose(tree, seq, rtol=1e-12, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(l=st.integers(1, 33), seed=st.integers(0, 2**31))
    def test_matches_schedule_replay_oracle(self, l, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 1, (l, 2))
        bu = rng.standard_normal((l, 2))
        states = scan.blelloch_scan(scan.ScanInput(a_seq=a, bu_seq=bu))
        assert np.array_equal(states, replay_schedule(a, bu))  # same schedule => bit-identical

    def test_matches_sequential_matrix_mode(self, rng):
        l, n = 11, 3
        a = rng.uniform(-0.5, 0.5, (l, n, n))
        bu = rng.standard_normal((l, n))
        inp = scan.ScanInput(a_seq=a, bu_seq=bu, matrix=True)
        assert np.allclose(scan.blelloch_scan(inp), scan.sequential_scan(inp), atol=1e-12)

    def test_padding_edge_lengths(self, rng):
        for l in (1, 2, 3, 5, 17, 127, 129, 255, 256, 257):
            inp = scan.ScanInput(
                a_seq=rng.uniform(0, 1, (l, 2)), bu_seq=rng.standard_normal((l, 2))
            )
            rel = np.abs(scan.blelloch_scan(inp) - scan.sequential_scan(inp))
            assert rel.max() <= 1e-10

    def test_work_bound(self):
        # blelloch_scan runs one composition per destination of its level plan
        for l in range(1, 300):
            assert sum(dst.size for dst, _ in scan._level_plan(l)) <= 2 * l


def test_tree_schedule_matches_paper_l4():
    # up sweep: (1,2),(3,4),(2,4) in 1-indexed terms; down sweep: r0*c1, (2,3)
    pairs = scan.tree_schedule(4)
    assert pairs == [(0, 1), (2, 3), (1, 3), (-1, 0), (1, 2)]
