import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from centrex import forms, loops, periods, su, verify
from centrex.loops import (DiscreteLoop, LoopTangent, circle_integral,
                           constant_loop, random_smooth_loop,
                           random_smooth_tangent, right_log_derivative,
                           spectral_derivative, theta_grid)
from centrex.rng import stream_draws
from centrex.su import (_entry_major, _gaussian_algebra, assert_algebra,
                        assert_special_unitary, exp_stack)

from chart_fd import is_entry_major, same_bits

H = np.array([[1j, 0], [0, -1j]])
N = 64


def one_parameter_loop(num=N):
    theta = theta_grid(num)
    return DiscreteLoop(exp_stack(theta[:, None, None] * H))


def test_constant_loop_derivative_vanishes():
    assert np.abs(spectral_derivative(constant_loop(2, N).samples)).max() \
        <= 1e-13


def test_one_parameter_subgroup_derivative():
    g = one_parameter_loop()
    dg = spectral_derivative(g.samples)
    assert np.abs(dg[0] - H).max() <= 1e-10


def test_leibniz_rule():
    g = random_smooth_loop(2, 2, 128, 3, stream=0)
    h = random_smooth_loop(2, 2, 128, 3, stream=1)
    lhs = spectral_derivative(g.multiply(h).samples)
    rhs = (spectral_derivative(g.samples) @ h.samples
           + g.samples @ spectral_derivative(h.samples))
    assert np.abs(lhs - rhs).max() <= 1e-9


def test_circle_integral_values():
    theta = theta_grid(N)
    assert abs(circle_integral(np.ones(N)) - 2 * np.pi) <= 1e-14
    assert abs(circle_integral(np.cos(theta))) <= 1e-13
    assert abs(circle_integral(np.cos(theta) ** 2) - np.pi) <= 1e-12


def test_right_log_derivative_of_subgroup():
    g = one_parameter_loop()
    rho = right_log_derivative(g)
    assert np.abs(rho - H).max() <= 1e-10


def test_loop_validation():
    with pytest.raises(ValueError, match="power of two"):
        constant_loop(2, 24)
    with pytest.raises(ValueError, match="power of two"):
        constant_loop(2, 8)
    bad = np.broadcast_to(2 * np.eye(2), (N, 2, 2)).copy()
    with pytest.raises(ValueError, match="SU"):
        DiscreteLoop(bad)


def test_tangent_validation_and_arithmetic():
    x = random_smooth_tangent(3, 2, N, 3)
    y = random_smooth_tangent(3, 2, N, 3, stream=1)
    z = 2.0 * x + y - x
    assert isinstance(z, LoopTangent)
    with pytest.raises(TypeError, match="real"):
        (1 + 1j) * x
    with pytest.raises(ValueError, match="su"):
        LoopTangent(np.broadcast_to(np.eye(2), (N, 2, 2)).copy())


def test_random_loop_determinism():
    a = random_smooth_loop(5, 2, N, 3, stream=9)
    b = random_smooth_loop(5, 2, N, 3, stream=9)
    assert np.array_equal(a.samples, b.samples)
    c = random_smooth_loop(6, 2, N, 3, stream=9)
    assert not np.array_equal(a.samples, c.samples)


def test_zero_modes_gives_identity_loop():
    g = random_smooth_loop(5, 3, N, 0)
    assert np.abs(g.samples - np.eye(3)).max() == 0.0


def test_modes_guard():
    with pytest.raises(ValueError, match="N/8"):
        random_smooth_loop(0, 2, 16, 3)


def test_resolution_refinement_consistency():
    # same seed at N and 2N samples the same smooth loop
    coarse = random_smooth_loop(8, 2, N, 3, stream=4)
    fine = random_smooth_loop(8, 2, 2 * N, 3, stream=4)
    assert np.abs(fine.samples[::2] - coarse.samples).max() <= 1e-12


def _subsampling_cases():
    for dim in (2, 3, 4, 5):
        for num in (16, 64, 128, 256):
            for modes in sorted({0, 1, 3, num // 8}):
                if modes <= num // 8:
                    yield dim, num, modes


@pytest.mark.parametrize("dim,num,modes", list(_subsampling_cases()))
def test_synthesis_at_n_is_the_even_samples_at_2n(dim, num, modes):
    # theta_grid(2N)[2j] == theta_grid(N)[j] exactly, and synthesis acts
    # samplewise, so the battery may draw its doubled inputs at 2N only
    for make in (random_smooth_loop, random_smooth_tangent):
        for stream in (7, [3, 8, 2]):
            coarse = make(13, dim, num, modes, stream=stream).samples
            fine = make(13, dim, 2 * num, modes, stream=stream).samples
            assert np.array_equal(fine[..., ::2, :, :], coarse)


def test_cached_derivatives_are_exact_and_read_only():
    g = random_smooth_loop(21, 3, N, 3, stream=[1, 2])
    x = random_smooth_tangent(21, 3, N, 3, stream=[3, 4])
    assert np.array_equal(x.derivative, spectral_derivative(x.samples))
    assert np.array_equal(g.log_derivative, right_log_derivative(g))
    assert x.derivative is x.derivative
    assert g.log_derivative is g.log_derivative
    for cached in (x.derivative, g.log_derivative):
        with pytest.raises(ValueError):
            cached[0, 0, 0, 0] = 0.0


def test_loop_side_arrays_are_entry_major(monkeypatch):
    # every array a loop or tangent stores (public constructor, _trusted,
    # lazy products, cached derivatives) is entry-major and read-only, and
    # so is every _matmul and exp_stack output at n <= 3
    stored, products = [], []
    frozen = loops._frozen

    def recording_frozen(values):
        stored.append(frozen(values))
        return stored[-1]
    monkeypatch.setattr(loops, "_frozen", recording_frozen)
    copied = []
    copy = loops._entry_major_copy
    monkeypatch.setattr(loops, "_entry_major_copy",
                        lambda values: copied.append(values) or copy(values))
    for name in ("_matmul", "exp_stack"):
        original = getattr(su, name)

        def recording(*args, _original=original):
            out = _original(*args)
            if out.shape[-1] <= 3:
                products.append(out)
            return out
        for module in (su, loops, forms, verify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording)
    for dim in (2, 3, 4):
        checks = verify.run_gamma_battery(dim=dim, samples=64, modes=2,
                                          trials=3)
        assert all(c.passed for c in checks)
        del copied[:]
        g = random_smooth_loop(5, dim, N, 2, stream=[1, 2])
        x = random_smooth_tangent(5, dim, N, 2, stream=[3, 4])
        # synthesized samples are stored uncopied (only the eigh
        # exponential above n = 3 is not entry-major), each call's own array
        assert len(copied) == (dim > 3)
        for make, member, streams in ((random_smooth_loop, g, [1, 2]),
                                      (random_smooth_tangent, x, [3, 4])):
            twin = make(5, dim, N, 2, stream=streams)
            assert np.array_equal(twin.samples, member.samples)
            assert not np.shares_memory(twin.samples, member.samples)
        assert not np.shares_memory(g.samples, x.samples)
        interleaved = np.ascontiguousarray(x.samples)
        for member in (g, x, g.inverse(), g.multiply(g), constant_loop(dim, N),
                       DiscreteLoop(np.ascontiguousarray(g.samples)),
                       LoopTangent(interleaved), 2.0 * x, x + x, -x):
            stored.append(member.samples)
        stored += [x.derivative, g.log_derivative]
    periods.equator_rows(periods.SphereFamily(grid_u=4, grid_phi=8,
                                              num_samples=N))
    assert len(stored) > 50 and len(products) > 50
    for values in stored:
        assert is_entry_major(values) and not values.flags.writeable
        assert values.dtype == np.complex128
    assert all(is_entry_major(out) for out in products)


def test_trusted_keeps_entry_major_arrays_and_copies_others():
    x = random_smooth_tangent(6, 3, N, 2, stream=[1, 2]).samples
    fresh = _entry_major(x.shape)
    fresh[...] = x
    assert LoopTangent._trusted(fresh).samples is fresh
    interleaved = np.ascontiguousarray(x)
    kept = LoopTangent._trusted(interleaved).samples
    assert not np.shares_memory(kept, interleaved)
    assert np.array_equal(kept, x) and is_entry_major(kept)


def test_synthesis_basis_is_built_in_sample_slices():
    # at N = 8192 with 512 modes the whole (1025, N) basis would be 64 MiB
    tracemalloc.start()
    try:
        field = loops._smooth_field(3, 2, 8192, 512, 0, 0.5,
                                    lambda k: 0.5 / (1 + k**2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert field.shape == (8192, 2, 2)
    assert peak < 16 * 2**20


def _mode_by_mode_field(seed, dim, num_samples, modes, stream, constant,
                        decay):
    # the synthesis as a sum over modes in order, theta innermost
    streams = np.asarray(stream)
    leading = [constant] if constant else []
    scales = np.array(leading + [decay(k) for k in range(1, modes + 1)
                                 for _ in (0, 1)])
    normals = stream_draws(seed, streams.reshape(-1), "standard_normal",
                           scales.shape + (2, dim, dim))
    coeffs = _gaussian_algebra(normals, scales)[..., None]
    theta = theta_grid(num_samples)
    field = np.zeros((streams.size, dim, dim, num_samples),
                     dtype=np.complex128)
    if leading:
        field += coeffs[:, 0]
    for k in range(1, modes + 1):
        j = len(leading) + 2 * k - 2
        field += np.cos(k * theta) * coeffs[:, j]
        field += np.sin(k * theta) * coeffs[:, j + 1]
    return np.moveaxis(field, -1, 1).reshape(
        streams.shape + (num_samples, dim, dim))


@pytest.mark.parametrize("dim", range(2, 9))
def test_synthesis_is_the_mode_by_mode_sum(dim):
    # bit for bit the mode-by-mode sum (signed zeros included), entry-major;
    # modes = 0 gives the zero loop field; at N = 2048 with 256 modes a
    # tangent's 513 x 2048 basis is contracted in two sample slices
    for num, modes in ((16, 0), (64, 2), (128, 3), (128, 16), (2048, 256)):
        for stream in ((0, [3, 5], [[1, 2, 7], [4, 5, 6]]) if num < 2048
                       else ([3, 5],)):
            for constant, decay in ((0.0, lambda k: 0.4 / k**2),
                                    (0.5, lambda k: 0.5 / (1 + k**2))):
                args = (11, dim, num, modes, stream, constant, decay)
                got = loops._smooth_field(*args)
                want = _mode_by_mode_field(*args)
                assert is_entry_major(got)
                assert same_bits(got, want)
                if modes == 0 and not constant:
                    assert not got.any()


def test_battery_differentiates_each_field_once(monkeypatch):
    calls = []
    for name in ("spectral_derivative", "right_log_derivative"):
        def counted(*args, _name=name, _original=getattr(loops, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(loops, name, counted)
    # one stack of 8 trials
    checks = verify.run_gamma_battery(dim=2, samples=128, modes=3, trials=8)
    assert all(c.passed for c in checks)
    assert calls.count("spectral_derivative") <= 13
    assert calls.count("right_log_derivative") <= 4


def test_battery_forms_each_product_once(monkeypatch):
    # one stack of 8 trials at dim 3, N = 128: every _matmul operand holds
    # 1024 matrices at N; an earlier battery formed g1 g2 four times,
    # Ad(g2^-1) X1 three times and k g1 twice, and took both exponentials
    # of each stencil step (12 exp_stack calls, 77 units); the stencil
    # then took one exponential per tangent and step (7 calls, 64 units)
    work = {"exp_stack": 0, "units": 0.0}
    matmul, exp = su._matmul, su.exp_stack

    def counted_matmul(a, b):
        shape = np.broadcast_shapes(a.shape, b.shape)
        work["units"] += np.prod(shape[:-2]) / 1024
        return matmul(a, b)

    def counted_exp(x):
        work["exp_stack"] += 1
        return exp(x)

    for module in (su, loops, forms, verify):
        if hasattr(module, "_matmul"):
            monkeypatch.setattr(module, "_matmul", counted_matmul)
        if hasattr(module, "exp_stack"):
            monkeypatch.setattr(module, "exp_stack", counted_exp)
    checks = verify.run_gamma_battery(dim=3, samples=128, modes=3, trials=8)
    assert all(c.passed for c in checks)
    assert work["exp_stack"] <= 5
    assert work["units"] <= 61


def test_products_are_kept_once_per_operand():
    g, h = (random_smooth_loop(3, 2, 64, 2, stream=k) for k in (0, 1))
    x = random_smooth_tangent(3, 2, 64, 2, stream=2)
    gh = g.multiply(h)
    assert g.multiply(h) is gh and np.array_equal(
        gh.samples, su._matmul(g.samples, h.samples))
    assert x.adjoint_inverse(h) is x.adjoint_inverse(h)
    # an equal loop that is another object gets its own entry
    twin = DiscreteLoop(h.samples)
    assert g.multiply(twin) is not gh
    assert np.array_equal(g.multiply(twin).samples, gh.samples)


def test_kept_products_form_no_reference_cycle():
    # each loop keeps its product with the other and holds the other
    # weakly, so both are freed with their last reference, without a
    # garbage collection
    g, h = (random_smooth_loop(3, 2, 64, 2, stream=k) for k in (0, 1))
    g.multiply(h), h.multiply(g)
    x = random_smooth_tangent(3, 2, 64, 2, stream=2)
    x.adjoint_inverse(g)
    refs = [weakref.ref(f) for f in (g, h, x)]
    gc.disable()
    try:
        del g, h, x
        assert [r() for r in refs] == [None] * 3
    finally:
        gc.enable()


_FD8 = np.array([1.0 / 280, -4.0 / 105, 1.0 / 5, -4.0 / 5,
                 4.0 / 5, -1.0 / 5, 4.0 / 105, -1.0 / 280])
_FD8_OFFSETS = (-4, -3, -2, -1, 1, 2, 3, 4)


def fd_derivative8(values):
    """8th-order centered finite difference on the periodic grid along the
    sample axis of a (..., N, n, n) array (independent cross-check of the
    spectral derivative)."""
    values = np.asarray(values)
    h = 2.0 * np.pi / values.shape[-3]
    out = np.zeros_like(values, dtype=np.complex128)
    for coeff, off in zip(_FD8, _FD8_OFFSETS):
        out += coeff * np.roll(values, -off, axis=-3)
    return out / h


def test_spectral_vs_eighth_order_fd():
    g = random_smooth_loop(23, 2, 128, 3, stream=5)
    residual = np.abs(spectral_derivative(g.samples)
                      - fd_derivative8(g.samples)).max()
    assert residual <= 1e-8
    # a stack differentiates each entry along its own sample axis
    stack = random_smooth_loop(23, 2, 128, 3, stream=[5, 6, 7])
    fd = fd_derivative8(stack.samples)
    assert np.abs(spectral_derivative(stack.samples) - fd).max() <= 1e-8
    assert np.array_equal(fd[0], fd_derivative8(g.samples))


def test_construction_copies_the_callers_array():
    # the caller's array stays writeable whether the input is accepted or
    # rejected, and a write through a view taken before the call does not
    # reach the validated samples
    for cls, make, bad in (
            (DiscreteLoop, random_smooth_loop, 5.0),
            (LoopTangent, random_smooth_tangent, 5.0 + 1j)):
        a = make(3, 2, N, 2).samples.copy()
        view = a[:]
        member = cls(a)
        assert a.flags.writeable and view.flags.writeable
        view[0, 0, 0] = bad
        assert member.samples[0, 0, 0] != bad
        member._check_members(member.samples)
        with pytest.raises(ValueError):
            cls(a)
        assert a.flags.writeable


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_synthesis_still_checks_membership(monkeypatch, dim):
    # synthesis stores its fresh arrays uncopied, but still checks them
    exp = loops.exp_stack
    monkeypatch.setattr(loops, "exp_stack", lambda x: 1.01 * exp(x))
    with pytest.raises(ValueError, match="SU"):
        random_smooth_loop(3, dim, N, 2, stream=[1, 2])
    algebra = loops._gaussian_algebra
    monkeypatch.setattr(loops, "_gaussian_algebra",
                        lambda *args: 1j + algebra(*args))
    with pytest.raises(ValueError, match="su"):
        random_smooth_tangent(3, dim, N, 2, stream=[1, 2])


def test_stacked_loops_and_tangents():
    g = random_smooth_loop(17, 2, N, 3, stream=[4, 5])
    x = random_smooth_tangent(17, 2, N, 3, stream=[6, 7])
    assert g.samples.shape == (2, N, 2, 2) and g.num_samples == N
    assert x.dim == 2
    # one scalar per stack entry
    scaled = np.array([2.0, -0.5]) * x
    assert np.array_equal(scaled.samples[1], (-0.5 * LoopTangent(
        x.samples[1])).samples)
    # one bad entry fails the whole stack
    bad = g.samples.copy()
    bad[1, 3] *= 2
    with pytest.raises(ValueError, match="SU"):
        DiscreteLoop(bad)
    theta = theta_grid(N)
    rows = circle_integral(np.stack([np.ones(N), np.cos(theta) ** 2]))
    assert rows.shape == (2,)
    assert np.allclose(rows, [2 * np.pi, np.pi], atol=1e-12)


def _rejected(make):
    """make() raises ValueError, and no warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            make()


@pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_rejected(fill):
    bad = np.full((16, 2, 2), fill, dtype=np.complex128)
    _rejected(lambda: DiscreteLoop(bad))
    _rejected(lambda: LoopTangent(bad))
    _rejected(lambda: assert_special_unitary(bad[0]))
    _rejected(lambda: assert_algebra(bad[0]))
    # one non-finite entry in an otherwise valid loop or tangent
    g = random_smooth_loop(3, 2, 16, 2).samples.copy()
    g[5, 0, 1] = fill
    _rejected(lambda: DiscreteLoop(g))
    x = random_smooth_tangent(3, 2, 16, 2).samples.copy()
    x[5, 1, 1] = fill
    _rejected(lambda: LoopTangent(x))
    # a non-finite imaginary part alone
    g = random_smooth_loop(3, 2, 16, 2).samples.copy()
    g[5, 0, 1] = complex(0.0, fill)
    _rejected(lambda: DiscreteLoop(g))
    x = random_smooth_tangent(3, 2, 16, 2).samples.copy()
    x[5, 1, 1] = complex(0.0, fill)
    _rejected(lambda: LoopTangent(x))


def test_empty_matrices_rejected():
    _rejected(lambda: DiscreteLoop(np.zeros((16, 0, 0))))
    _rejected(lambda: LoopTangent(np.zeros((16, 0, 0))))



@pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf])
def test_non_finite_scalars_rejected(fill):
    x = random_smooth_tangent(3, 2, 16, 2)
    _rejected(lambda: fill * x)
    _rejected(lambda: x * fill)
    _rejected(lambda: np.array([1.0, fill]) * x)


def _count_checks(monkeypatch):
    """Count membership residuals, patched in every module binding them."""
    calls = []
    for name in ("unitary_residual", "algebra_residual"):
        original = getattr(su, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(name)
            return _original(*args, **kwargs)

        for module in (su, loops, forms, periods, verify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


def test_intermediates_are_not_rechecked(monkeypatch):
    calls = _count_checks(monkeypatch)
    # dim 2, 128 samples: stacks of 18 trials, so 11 trials make one stack
    checks = verify.run_gamma_battery(dim=2, samples=128, modes=3, trials=11,
                                      seed=4)
    assert all(c.passed for c in checks)
    # one check per synthesis call: (g1, g3), (x2, x3, y2) at N, and
    # (x1, y1), g2 at 2N only (their N-sample data are the even samples,
    # not checked again)
    assert len(calls) == 4
    del calls[:]
    _, (check, _) = verify.run_period_checks(grid=(16, 16), samples=32)
    assert check.passed and calls == []
