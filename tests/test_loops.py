import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrex import forms, loops, periods, su, verify
from centrex.loops import (DiscreteLoop, LoopTangent, circle_integral,
                           constant_loop, displace, fd_derivative8,
                           format_loop, parse_loop, random_smooth_loop,
                           random_smooth_tangent, right_log_derivative,
                           theta_derivative, theta_grid, zero_tangent)
from centrex.su import assert_algebra, assert_special_unitary, exp_stack

H = np.array([[1j, 0], [0, -1j]])
N = 64


def one_parameter_loop(num=N):
    theta = theta_grid(num)
    return DiscreteLoop(exp_stack(theta[:, None, None] * H))


def test_constant_loop_derivative_vanishes():
    assert np.abs(theta_derivative(constant_loop(2, N))).max() <= 1e-13


def test_one_parameter_subgroup_derivative():
    g = one_parameter_loop()
    dg = theta_derivative(g)
    assert np.abs(dg[0] - H).max() <= 1e-10


def test_leibniz_rule():
    g = random_smooth_loop(2, 2, 128, 3, stream=0)
    h = random_smooth_loop(2, 2, 128, 3, stream=1)
    lhs = theta_derivative(g.multiply(h))
    rhs = theta_derivative(g) @ h.samples + g.samples @ theta_derivative(h)
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


def test_spectral_vs_eighth_order_fd():
    g = random_smooth_loop(23, 2, 128, 3, stream=5)
    residual = np.abs(theta_derivative(g) - fd_derivative8(g.samples)).max()
    assert residual <= 1e-8
    # a stack differentiates each entry along its own sample axis
    stack = random_smooth_loop(23, 2, 128, 3, stream=[5, 6, 7])
    fd = fd_derivative8(stack.samples)
    assert np.abs(theta_derivative(stack) - fd).max() <= 1e-8
    assert np.array_equal(fd[0], fd_derivative8(g.samples))


def test_displace_first_order():
    g = random_smooth_loop(11, 2, N, 3)
    x = random_smooth_tangent(11, 2, N, 3, stream=2)
    moved = displace(g, x, 1e-6)
    lin = g.samples @ (np.eye(2) + 1e-6 * x.samples)
    assert np.abs(moved.samples - lin).max() <= 1e-11


def test_loop_file_roundtrip():
    g = random_smooth_loop(13, 2, N, 2)
    back = parse_loop(format_loop(g))
    assert np.array_equal(back.samples, g.samples)
    assert back.dim == 2 and back.num_samples == N


def test_loop_file_errors():
    with pytest.raises(ValueError, match="header"):
        parse_loop("x 64\n")
    with pytest.raises(ValueError, match="re/im"):
        parse_loop("2 16\n1 0\n")


def test_zero_tangent_shape():
    z = zero_tangent(3, N)
    assert z.samples.shape == (N, 3, 3)
    assert np.abs(z.samples).max() == 0.0


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
    tokens = format_loop(random_smooth_loop(3, 2, 16, 2)).split()
    tokens[2] = repr(fill)
    _rejected(lambda: parse_loop(" ".join(tokens)))


def test_empty_matrices_rejected():
    _rejected(lambda: DiscreteLoop(np.zeros((16, 0, 0))))
    _rejected(lambda: LoopTangent(np.zeros((16, 0, 0))))
    _rejected(lambda: parse_loop("0 16\n"))


_LOOP_TOKENS = st.one_of(
    st.integers(-3, 6), st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "x", "0x1", "\u0661"]))


def _sized_loop(header):
    # header "n N" followed by exactly the 2 N n^2 tokens it announces
    dim, num = header
    return st.lists(_LOOP_TOKENS, min_size=2 * num * dim * dim,
                    max_size=2 * num * dim * dim).map(
        lambda body: [dim, num] + body)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(
    st.lists(_LOOP_TOKENS, max_size=12),
    st.tuples(st.sampled_from([-1, 0, 1, 2, 2**62]),
              st.sampled_from([-16, 0, 4, 16, 2**62])).map(list),
    st.tuples(st.sampled_from([0, 1, 2]),
              st.sampled_from([0, 8, 16])).flatmap(_sized_loop)))
def test_parse_loop_raises_only_value_error(tokens):
    try:
        loop = parse_loop(" ".join(map(str, tokens)))
    except ValueError:
        return
    assert isinstance(loop, DiscreteLoop)
    assert np.isfinite(loop.samples).all()


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
    # 128 samples: stacks of 8 trials, so 11 trials make two stacks
    report = verify.run_gamma_battery(dim=2, samples=128, modes=3, trials=11,
                                      seed=4)
    assert report.all_passed
    # per stack: g1-g3, x1-x3, y1, y2 and the doubled x1, y1, g2
    assert len(calls) == 2 * 11
    del calls[:]
    _, check = verify.run_period_check(grid=(16, 16), samples=32)
    assert check.passed and calls == []
