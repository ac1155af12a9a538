import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrex.errors import NumericalError
from centrex.rng import generator
from centrex.su import (_det, ad_invariance_residual, algebra_residual,
                        assert_algebra, assert_special_unitary, exp_stack,
                        exponential, killing_form, project_algebra,
                        random_algebra, unitary_residual)

H = np.array([[1j, 0], [0, -1j]])


def test_killing_form_coroot_normalization():
    # the coroot direction in su(2) has squared length 2
    assert killing_form(H, H) == pytest.approx(2.0, abs=1e-15)


def test_killing_form_zero_and_symmetry():
    rng = generator(1)
    assert killing_form(np.zeros((3, 3)), random_algebra(rng, 3)) == 0.0
    for n in (2, 3):
        for _ in range(20):
            x, y = random_algebra(rng, n), random_algebra(rng, n)
            assert killing_form(x, y) == pytest.approx(killing_form(y, x),
                                                       abs=1e-14)


def test_killing_form_positive_definite():
    rng = generator(2)
    for n in (2, 3, 4):
        for _ in range(20):
            x = random_algebra(rng, n)
            assert killing_form(x, x) > 0
    # basis directions: skew-Hermitian elementary combinations
    for n in (2, 3):
        for a in range(n):
            for b in range(a + 1, n):
                e = np.zeros((n, n), dtype=complex)
                e[a, b], e[b, a] = 1.0, -1.0
                f = np.zeros((n, n), dtype=complex)
                f[a, b] = f[b, a] = 1j
                assert killing_form(e, e) > 0 and killing_form(f, f) > 0


def test_coroot_normalization_all_dimensions():
    # diag(i, -i, 0, ...) is a coroot direction in every su(n)
    for n in (2, 3, 4):
        h = np.zeros((n, n), dtype=complex)
        h[0, 0], h[1, 1] = 1j, -1j
        assert killing_form(h, h) == pytest.approx(2.0, abs=1e-15)


def test_killing_form_real_bilinear():
    rng = generator(3)
    x, y, z = (random_algebra(rng, 3) for _ in range(3))
    lhs = killing_form(1.25 * x - 0.5 * y, z)
    rhs = 1.25 * killing_form(x, z) - 0.5 * killing_form(y, z)
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_killing_form_dimension_mismatch():
    with pytest.raises(ValueError):
        killing_form(np.zeros((2, 2)), np.zeros((3, 3)))


def test_ad_invariance():
    rng = generator(5)
    for n in (2, 3):
        for _ in range(100):
            g = exponential(random_algebra(rng, n))
            x, y = random_algebra(rng, n), random_algebra(rng, n)
            assert ad_invariance_residual(g, x, y) <= 1e-10
    assert ad_invariance_residual(np.eye(2), H, H) == 0.0


def test_exponential_special_values():
    assert np.allclose(exponential(np.zeros((2, 2))), np.eye(2))
    assert np.allclose(exponential(np.diag([1j * np.pi, -1j * np.pi])),
                       -np.eye(2), atol=1e-12)


def test_exponential_inverse_law():
    rng = generator(7)
    for n in (2, 3):
        for _ in range(25):
            x = random_algebra(rng, n)
            g = exponential(x)
            assert np.abs(g @ exponential(-x) - np.eye(n)).max() <= 1e-10


def test_exponential_output_in_sun():
    rng = generator(9)
    for n in (2, 3, 4):
        g = exponential(random_algebra(rng, n, scale=2.0))
        assert_special_unitary(g)


def test_exponential_respects_conjugation():
    rng = generator(11)
    for n in (2, 3):
        for _ in range(10):
            x = random_algebra(rng, n)
            g = exponential(random_algebra(rng, n))
            gi = g.conj().T
            lhs = exponential(project_algebra(g @ x @ gi))
            rhs = g @ exponential(x) @ gi
            assert np.abs(lhs - rhs).max() <= 1e-9


def _degenerate_su3_cases():
    # exactly degenerate spectrum diag(ia, ia, -2ia), then split by eps,
    # each also rotated by a random unitary
    rng = generator(17)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                        + 1j * rng.standard_normal((3, 3)))
    cases = []
    for a in (0.3, 1.0, 2.5):
        for eps in (0.0, 1e-4, 1e-6, 1e-8, 1e-10):
            d = np.diag([1j * (a + eps), 1j * (a - eps), -2j * a])
            cases += [d, q @ d @ q.conj().T]
    return np.array(cases)


@pytest.mark.parametrize("n", [2, 3])
def test_exponential_closed_form_matches_eigh(n):
    rng = generator(13)
    stacks = [np.zeros((1, n, n))]
    stacks += [random_algebra(rng, n, np.full(20, scale))
               for scale in (1e-12, 1e-8, 1.0, 3.0)]
    if n == 3:
        stacks.append(_degenerate_su3_cases())
    for x in stacks:
        for signed in (x, -x):       # both signs of det(-iX) for n = 3
            w, q = np.linalg.eigh(1j * signed)
            via_eigh = (q * np.exp(-1j * w)[..., None, :]) @ np.conj(
                np.swapaxes(q, -1, -2))
            g = exp_stack(signed)
            assert np.abs(g - via_eigh).max() <= 1e-13
            assert max(unitary_residual(g)) <= 1e-13


def test_small_n_paths_avoid_lapack(monkeypatch):
    # eigh and det are left to n >= 4; n <= 3 stays elementwise
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called for n <= 3")
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    rng = generator(21)
    for n in (1, 2, 3):
        g = exponential(random_algebra(rng, n, np.full(4, 0.7)))
        assert max(unitary_residual(g)) <= 1e-13


def test_small_determinant_matches_lapack():
    rng = generator(19)
    for n in (2, 3):
        m = (rng.standard_normal((50, n, n))
             + 1j * rng.standard_normal((50, n, n)))
        ref = np.linalg.det(m)
        assert np.abs(_det(m) - ref).max() <= 1e-13 * (1 + np.abs(ref).max())


def test_exponential_rejects_non_algebra_input():
    with pytest.raises(ValueError):
        exponential(np.eye(2))


def test_project_algebra_idempotent_and_fixes_algebra():
    rng = generator(15)
    for n in (2, 3):
        x = random_algebra(rng, n)
        assert np.abs(project_algebra(x) - x).max() <= 1e-15
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p = project_algebra(m)
        assert np.abs(project_algebra(p) - p).max() <= 1e-15
        assert_algebra(p)


def test_project_algebra_kernel():
    assert np.abs(project_algebra(np.eye(3))).max() == 0.0
    herm = np.array([[1.0, 2.0], [2.0, -1.0]])  # Hermitian traceless
    assert np.abs(project_algebra(herm)).max() <= 1e-15


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_random_algebra_always_valid(seed):
    x = random_algebra(generator(seed), 3)
    frob, tr = algebra_residual(x)
    assert frob <= 1e-12 and tr <= 1e-12


def test_residual_helpers_detect_violations():
    frob, det = unitary_residual(2 * np.eye(2))
    assert frob > 1 and det > 1
    with pytest.raises(ValueError):
        assert_special_unitary(2 * np.eye(2))
    # unitary, but det -1: only the determinant residual sees it
    reflection = np.diag([1.0, 1.0, -1.0])
    assert unitary_residual(reflection) == (0.0, 2.0)
    with pytest.raises(ValueError):
        assert_special_unitary(reflection)
