import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrex import forms, loops, su, verify
from centrex.rng import generator

from chart_fd import is_entry_major, random_algebra, same_bits
from centrex.su import (_MATMUL_UNROLL_MAX, _dagger, _det, _matmul,
                        algebra_residual, assert_algebra,
                        assert_special_unitary, exp_stack,
                        killing_form_samples, project_algebra,
                        unitary_residual)

H = np.array([[1j, 0], [0, -1j]])


def test_killing_form_coroot_normalization():
    # the coroot direction in su(2) has squared length 2
    assert killing_form_samples(H, H) == pytest.approx(2.0, abs=1e-15)


def test_killing_form_zero_and_symmetry():
    rng = generator(1)
    assert killing_form_samples(np.zeros((3, 3)), random_algebra(rng, 3)) == 0
    for n in (2, 3):
        x = random_algebra(rng, n, np.ones(20))
        y = random_algebra(rng, n, np.ones(20))
        assert np.abs(killing_form_samples(x, y)
                      - killing_form_samples(y, x)).max() <= 1e-14


def test_killing_form_positive_definite():
    rng = generator(2)
    for n in (2, 3, 4):
        x = random_algebra(rng, n, np.ones(20))
        assert (killing_form_samples(x, x) > 0).all()
    # basis directions: skew-Hermitian elementary combinations
    for n in (2, 3):
        for a in range(n):
            for b in range(a + 1, n):
                e = np.zeros((n, n), dtype=complex)
                e[a, b], e[b, a] = 1.0, -1.0
                f = np.zeros((n, n), dtype=complex)
                f[a, b] = f[b, a] = 1j
                assert killing_form_samples(np.stack([e, f]),
                                            np.stack([e, f])).min() > 0


def test_coroot_normalization_all_dimensions():
    # diag(i, -i, 0, ...) is a coroot direction in every su(n), single
    # and stacked along the sample axis of a loop
    for n in (2, 3, 4):
        h = np.zeros((n, n), dtype=complex)
        h[0, 0], h[1, 1] = 1j, -1j
        assert abs(killing_form_samples(h, h) - 2.0) <= 1e-15
        stack = np.broadcast_to(h, (3, 16, n, n))
        assert np.abs(killing_form_samples(stack, stack) - 2.0).max() <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_killing_form_stack_matches_per_matrix_trace(n):
    rng = generator(4)
    x = random_algebra(rng, n, np.ones((3, 16)))
    y = random_algebra(rng, n, np.ones((3, 16)))
    got = killing_form_samples(x, y)
    assert got.shape == (3, 16)
    want = np.array([[-np.trace(x[b, j] @ y[b, j]).real for j in range(16)]
                     for b in range(3)])
    assert np.abs(got - want).max() <= 1e-14
    # the same bits for entry-major operands, and for one sample at a time
    for a, b in ((loops._entry_major_copy(x), loops._entry_major_copy(y)),
                 (x, loops._entry_major_copy(y))):
        assert np.array_equal(killing_form_samples(a, b), got)
    assert np.array_equal(killing_form_samples(x[1, 5], y[1, 5]), got[1, 5])


def test_killing_form_real_bilinear():
    rng = generator(3)
    x, y, z = (random_algebra(rng, 3) for _ in range(3))
    lhs = killing_form_samples(1.25 * x - 0.5 * y, z)
    rhs = 1.25 * killing_form_samples(x, z) - 0.5 * killing_form_samples(y, z)
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_ad_invariance():
    # |<g X g^-1, g Y g^-1> - <X, Y>| over a stack of random g, X, Y
    rng = generator(5)
    for n in (2, 3):
        g = exp_stack(random_algebra(rng, n, np.ones(100)))
        x = random_algebra(rng, n, np.ones(100))
        y = random_algebra(rng, n, np.ones(100))
        gi = _dagger(g)
        gx, gy = (_matmul(_matmul(g, v), gi) for v in (x, y))
        residual = np.abs(killing_form_samples(gx, gy)
                          - killing_form_samples(x, y))
        assert residual.max() <= 1e-10


def test_exponential_special_values():
    assert np.allclose(exp_stack(np.zeros((2, 2))), np.eye(2))
    assert np.allclose(exp_stack(np.diag([1j * np.pi, -1j * np.pi])),
                       -np.eye(2), atol=1e-12)


def test_exponential_inverse_law():
    rng = generator(7)
    for n in (2, 3):
        x = random_algebra(rng, n, np.ones(25))
        product = _matmul(exp_stack(x), exp_stack(-x))
        assert np.abs(product - np.eye(n)).max() <= 1e-10


def test_exponential_output_in_sun():
    rng = generator(9)
    for n in (2, 3, 4):
        g = exp_stack(random_algebra(rng, n, scale=2.0))
        assert_special_unitary(g)


def test_exponential_respects_conjugation():
    rng = generator(11)
    for n in (2, 3):
        x = random_algebra(rng, n, np.ones(10))
        g = exp_stack(random_algebra(rng, n, np.ones(10)))
        gi = _dagger(g)
        lhs = exp_stack(project_algebra(_matmul(_matmul(g, x), gi)))
        rhs = _matmul(_matmul(g, exp_stack(x)), gi)
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
        g = exp_stack(random_algebra(rng, n, np.full(4, 0.7)))
        assert max(unitary_residual(g)) <= 1e-13


def test_small_determinant_matches_lapack():
    rng = generator(19)
    for n in (2, 3):
        m = (rng.standard_normal((50, n, n))
             + 1j * rng.standard_normal((50, n, n)))
        ref = np.linalg.det(m)
        assert np.abs(_det(m) - ref).max() <= 1e-13 * (1 + np.abs(ref).max())


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _column_matmul(a, b):
    # the unrolled arithmetic of the interleaved (C-order) kernel, one
    # output column at a time: out[..., :, k] = sum_j a[..., :, j] b[..., j, k]
    n = a.shape[-1]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    for k in range(n):
        column = out[..., :, k]
        np.multiply(a[..., :, 0], b[..., 0, k, None], out=column)
        for j in range(1, n):
            column += a[..., :, j] * b[..., j, k, None]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_matmul_matches_numpy(n):
    # unstacked (N, n, n), stacked (B, N, n, n) and the broadcast
    # (2, B, N, n, n) x (B, N, n, n) of left_invariance_fd_residual, with
    # interleaved (C-order), entry-major and mixed operands, and strided
    # _dagger views of each on either side
    rng = generator(23)
    shapes = [((16, n, n), (16, n, n)), ((3, 16, n, n), (3, 16, n, n)),
              ((2, 3, 16, n, n), (3, 16, n, n))]
    pairs = []
    for sa, sb in shapes:
        a, b = _complex(rng, sa), _complex(rng, sb)
        for x in (a, loops._entry_major_copy(a)):
            for y in (b, loops._entry_major_copy(b)):
                pairs += [(x, y), (_dagger(x), y), (x, _dagger(y)),
                          (_dagger(x), _dagger(y))]
    eps = np.finfo(np.float64).eps
    for a, b in pairs:
        got, want = _matmul(a, b), np.matmul(a, b)
        assert got.shape == want.shape and got.dtype == np.complex128
        if n > _MATMUL_UNROLL_MAX:
            assert np.array_equal(got, want)
        else:
            # the same multiply/add order per entry as the column kernel,
            # written entry-major
            assert same_bits(got, _column_matmul(a, b))
            assert is_entry_major(got)
            # entrywise within a few ulp of |a| |b|
            bound = (n + 2) * eps * (np.abs(a) @ np.abs(b))
            assert (np.abs(got - want) <= bound).all()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exp_stack_is_entry_major(n):
    rng = generator(29)
    x = random_algebra(rng, n, np.ones((3, 16)))
    for layout in (x, loops._entry_major_copy(x)):
        g = exp_stack(layout)
        assert is_entry_major(g)
        assert same_bits(g, exp_stack(x))
    if n == 2:
        # the closed form cos(r) I + sinc(r) X, bit for bit
        r = np.sqrt(np.maximum(_det(x).real, 0.0))
        assert same_bits(exp_stack(x),
                         np.cos(r)[..., None, None] * np.eye(2)
                         + np.sinc(r / np.pi)[..., None, None] * x)


def _projection_formula(m):
    # the projection as (M - M*)/2 minus its trace times the identity
    n = m.shape[-1]
    skew = (m - _dagger(m)) / 2.0
    tr = np.trace(skew, axis1=-2, axis2=-1) / n
    return skew - tr[..., None, None] * np.eye(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_project_algebra_matches_the_formula(n):
    # the in-place projection is bit for bit the formula, for single and
    # stacked matrices in either layout
    rng = generator(31, n)
    for shape in ((n, n), (5, 16, n, n)):
        m = _complex(rng, shape)
        for layout in (m, loops._entry_major_copy(m)):
            assert same_bits(project_algebra(layout),
                             _projection_formula(layout))


def test_loop_side_products_go_through_the_kernel():
    # outside _matmul itself, the only `@` left in these modules is the
    # n >= 4 eigh path of exp_stack
    allowed = {"_matmul", "exp_stack"}
    for module in (su, loops, forms, verify):
        tree = ast.parse(inspect.getsource(module))
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            uses = [op for op in ast.walk(node) if isinstance(op, ast.BinOp)
                    and isinstance(op.op, ast.MatMult)]
            assert not uses or node.name in allowed, (module.__name__,
                                                      node.name)


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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exp_of_negated_input_is_the_dagger(n):
    # the stencils take exp(-tX) as exp(tX)^*: equal to within 4 ulp of
    # the entry magnitudes (bit for bit at n = 2)
    eps = np.finfo(np.float64).eps
    for k, scale in enumerate((1e-4, 2e-4, 0.5, 3.0)):
        x = random_algebra(generator(41, 10 * n + k), n, np.full(500, scale))
        a, b = exp_stack(-x), _dagger(exp_stack(x))
        magnitude = np.abs(a).max(axis=(-2, -1), keepdims=True)
        assert (np.abs(a - b) <= 4 * eps * magnitude).all()
        if n == 2:
            assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exp_of_doubled_input_is_the_square(n):
    # the pushforward stencil takes exp(2hX) as exp(hX)^2: equal to within
    # 16 ulp of the unit entries (10 at worst here), at the stencil's step
    # and well beyond it
    eps = np.finfo(np.float64).eps
    for k, scale in enumerate((1e-4, 2e-4, 0.05, 0.5)):
        x = random_algebra(generator(43, 10 * n + k), n, np.full(500, scale))
        e = exp_stack(x)
        assert np.abs(_matmul(e, e) - exp_stack(2.0 * x)).max() <= 16 * eps
