import numpy as np
import pytest

from centrex import forms, verify
from centrex.forms import (d_R_numeric, d_alpha_numeric, delta_form_R,
                           delta_form_alpha, eval_R, eval_alpha,
                           face_pushforward, left_invariance_check,
                           left_invariance_fd_residual)
from centrex.loops import (DiscreteLoop, LoopTangent, _as_result,
                           conjugate_tangent, constant_loop,
                           random_smooth_loop, random_smooth_tangent,
                           theta_grid)
from centrex.su import _matmul, exp_stack, project_algebra
from centrex.verify import (TOLERANCES, _streams, pushforward_fd_residual,
                            run_gamma_battery)

from chart_fd import fd_d_R, fd_d_alpha

H = np.array([[1j, 0], [0, -1j]])
N = 128
ZERO = LoopTangent(np.zeros((N, 2, 2)))


def _loop(seed, stream, dim=2, num=N):
    return random_smooth_loop(seed, dim, num, 3, stream=stream)


def _tan(seed, stream, dim=2, num=N):
    return random_smooth_tangent(seed, dim, num, 3, stream=stream)


def test_eval_R_hand_value():
    theta = theta_grid(N)
    x = LoopTangent(np.cos(theta)[:, None, None] * H)
    y = LoopTangent(np.sin(theta)[:, None, None] * H)
    assert eval_R(x, y) == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-12)


def test_eval_R_degenerate_cases():
    x = _tan(1, 0)
    assert abs(eval_R(x, x)) <= 1e-12          # integral of a derivative
    const = LoopTangent(np.broadcast_to(H, (N, 2, 2)).copy())
    assert eval_R(const, const) == 0.0


def test_eval_R_antisymmetry():
    for t in range(25):
        x, y = _tan(2, 2 * t), _tan(2, 2 * t + 1)
        assert abs(eval_R(x, y) + eval_R(y, x)) <= 1e-11


def test_eval_alpha_hand_value():
    theta = theta_grid(N)
    g2 = DiscreteLoop(exp_stack(theta[:, None, None] * H))
    x1 = LoopTangent(np.broadcast_to(H, (N, 2, 2)).copy())
    assert eval_alpha(g2, x1) == pytest.approx(1.0 / np.pi, abs=1e-12)


def test_eval_alpha_degenerate_cases():
    assert eval_alpha(constant_loop(2, N), _tan(3, 0)) == 0.0
    assert eval_alpha(_loop(3, 1), ZERO) == 0.0


def test_bilinearity():
    g2 = _loop(5, 0)
    x, y, z = _tan(5, 1), _tan(5, 2), _tan(5, 3)
    a, b = 1.25, -0.75
    assert abs(eval_R(a * x + b * y, z) - a * eval_R(x, z) - b * eval_R(y, z)) \
        <= 1e-12
    assert abs(eval_R(z, a * x + b * y) - a * eval_R(z, x) - b * eval_R(z, y)) \
        <= 1e-12
    assert abs(eval_alpha(g2, a * x + b * y) - a * eval_alpha(g2, x)
               - b * eval_alpha(g2, y)) <= 1e-12


def test_shape_mismatch_rejected():
    x = _tan(7, 0, num=64)
    y = _tan(7, 1, num=128)
    with pytest.raises(ValueError):
        eval_R(x, y)
    with pytest.raises(ValueError):
        eval_alpha(_loop(7, 2, num=64), y)


def test_pushforward_drop_and_merge():
    g1, g2 = _loop(9, 0), _loop(9, 1)
    x1, x2 = _tan(9, 2), _tan(9, 3)
    loops, tans = face_pushforward(0, (g1, g2), (x1, x2))
    assert loops == (g2,) and tans == (x2,)
    loops, tans = face_pushforward(2, (g1, g2), (x1, x2))
    assert loops == (g1,) and tans == (x1,)
    loops, tans = face_pushforward(1, (g1, g2), (x1, x2))
    # the merged loop is the samplewise product, bit for bit
    assert np.abs(loops[0].samples
                  - _matmul(g1.samples, g2.samples)).max() == 0.0
    expected = project_algebra(
        np.conjugate(np.swapaxes(g2.samples, 1, 2)) @ x1.samples @ g2.samples
    ) + x2.samples
    assert np.abs(tans[0].samples - expected).max() <= 1e-14


def test_pushforward_identity_second_factor():
    g1 = _loop(11, 0)
    e = constant_loop(2, N)
    x1, x2 = _tan(11, 1), _tan(11, 2)
    _, tans = face_pushforward(1, (g1, e), (x1, x2))
    assert np.abs(tans[0].samples - (x1.samples + x2.samples)).max() <= 1e-14


def test_pushforward_zero_tangents():
    g1, g2 = _loop(13, 0), _loop(13, 1)
    z = ZERO
    _, tans = face_pushforward(1, (g1, g2), (z, z))
    assert np.abs(tans[0].samples).max() <= 1e-15


def test_pushforward_matches_finite_differences():
    for t in range(10):
        g1, g2 = _loop(17, 4 * t), _loop(17, 4 * t + 1)
        x1, x2 = _tan(17, 4 * t + 2), _tan(17, 4 * t + 3)
        assert pushforward_fd_residual(g1, g2, x1, x2) <= 1e-7


def test_pushforward_index_errors():
    g1, g2 = _loop(19, 0), _loop(19, 1)
    x1, x2 = _tan(19, 2), _tan(19, 3)
    with pytest.raises(IndexError):
        face_pushforward(3, (g1, g2), (x1, x2))
    with pytest.raises(ValueError):
        face_pushforward(0, (g1,), (x1,))


def test_delta_form_R_expansion():
    g1, g2 = _loop(21, 0), _loop(21, 1)
    xi = (_tan(21, 2), _tan(21, 3))
    eta = (_tan(21, 4), _tan(21, 5))
    g2_inv = g2.inverse()
    from centrex.loops import conjugate_tangent
    adx = conjugate_tangent(g2_inv, xi[0]) + xi[1]
    ady = conjugate_tangent(g2_inv, eta[0]) + eta[1]
    expected = (eval_R(xi[1], eta[1]) - eval_R(adx, ady)
                + eval_R(xi[0], eta[0]))
    assert delta_form_R((g1, g2), xi, eta) == pytest.approx(expected,
                                                            abs=1e-15)


def test_delta_form_R_degenerate():
    g1 = _loop(23, 0)
    e = constant_loop(2, N)
    xi = (_tan(23, 1), ZERO)
    eta = (_tan(23, 2), ZERO)
    # terms cancel pairwise; the su(n) projection re-rounds at ~1e-18
    assert abs(delta_form_R((g1, e), xi, eta)) <= 1e-15
    z = ZERO
    assert delta_form_R((g1, e), (z, z), (z, z)) == 0.0


def test_delta_form_alpha_residuals():
    for dim in (2, 3):
        for t in range(25):
            point = tuple(_loop(29, 8 * t + s, dim=dim) for s in range(3))
            xi = tuple(_tan(29, 8 * t + 3 + s, dim=dim) for s in range(3))
            assert abs(delta_form_alpha(point, xi)) <= 1e-9


def test_delta_form_alpha_exact_zeros():
    g1 = _loop(31, 0)
    e = constant_loop(2, N)
    z = ZERO
    assert delta_form_alpha((g1, e, e), (z, z, z)) == 0.0
    assert delta_form_alpha((g1, e, e), (_tan(31, 1), _tan(31, 2),
                                         _tan(31, 3))) == 0.0


def test_d_alpha_matches_delta_R():
    for t in range(10):
        g1, g2 = _loop(37, 6 * t), _loop(37, 6 * t + 1)
        xi = (_tan(37, 6 * t + 2), _tan(37, 6 * t + 3))
        eta = (_tan(37, 6 * t + 4), _tan(37, 6 * t + 5))
        dr = delta_form_R((g1, g2), xi, eta)
        da = d_alpha_numeric((g1, g2), xi, eta)
        assert abs(dr - da) <= 1e-14 * (1 + abs(dr))


def test_d_alpha_antisymmetry_and_zero():
    g1, g2 = _loop(41, 0), _loop(41, 1)
    xi = (_tan(41, 2), _tan(41, 3))
    z = (ZERO, ZERO)
    assert d_alpha_numeric((g1, g2), z, z) == 0.0
    assert abs(d_alpha_numeric((g1, g2), xi, xi)) <= 1e-10


def test_d_R_residuals():
    for t in range(10):
        x, y, z = (_tan(53, 4 * t + 1 + s) for s in range(3))
        assert abs(d_R_numeric(x, y, z)) <= 1e-15
        assert d_R_numeric(x, x, y) == 0.0   # repeated slot: [X, X] = 0


@pytest.mark.parametrize("dim", [2, 3])
def test_chart_reference_converges_to_the_closed_forms(dim):
    # the second-order chart differences approach both closed forms as
    # O(h^2): the gap is at most h^2 and shrinks at least 3x when h halves
    s = _streams(np.arange(10))
    g1, g2 = (random_smooth_loop(71, dim, N, 3, stream=s[k])
              for k in ("g1", "g2"))
    x1, x2, x3, y1, y2 = (random_smooth_tangent(71, dim, N, 3, stream=s[k])
                          for k in ("x1", "x2", "x3", "y1", "y2"))
    point, xi, eta = (g1, g2), (x1, x2), (y1, y2)
    exact_alpha = d_alpha_numeric(point, xi, eta)
    exact_R = d_R_numeric(x1, x2, x3)
    for reference, exact in (
            (lambda h: fd_d_alpha(point, xi, eta, h), exact_alpha),
            (lambda h: fd_d_R(x1, x2, x3, h), exact_R)):
        gap, gap_half = (np.abs(reference(h) - exact).max()
                         for h in (1e-3, 5e-4))
        assert gap <= 1e-6
        assert gap >= 3.0 * gap_half


def test_left_invariance():
    k, g1, g2 = _loop(59, 0), _loop(59, 1), _loop(59, 2)
    x1, y1 = _tan(59, 3), _tan(59, 4)
    assert left_invariance_check(k, g1, g2, x1, y1) \
        <= TOLERANCES["left_invariance"]
    assert left_invariance_fd_residual(k, g1, g2, x1) <= 1e-9


def test_left_invariance_check_can_fail():
    # a translation that is not in SU(n) no longer cancels against the
    # left-trivialization at k g1
    g1, g2 = _loop(59, 1), _loop(59, 2)
    x1, y1 = _tan(59, 3), _tan(59, 4)
    k = DiscreteLoop._trusted(np.broadcast_to(1.001 * np.eye(2), (N, 2, 2)))
    assert left_invariance_check(k, g1, g2, x1, y1) > 1e-5


def test_stacked_forms_match_unstacked_calls():
    # a stack of three points gives each entry's unstacked value
    for dim in (2, 3):
        g = [random_smooth_loop(61, dim, 64, 3, stream=[10 * k + t
                                                        for t in range(3)])
             for k in range(3)]
        x = [random_smooth_tangent(61, dim, 64, 3,
                                   stream=[10 * k + 5 + t for t in range(3)])
             for k in range(4)]
        stacked = (
            eval_R(x[0], x[1]), eval_alpha(g[1], x[0]),
            delta_form_alpha(tuple(g), tuple(x[:3])),
            delta_form_R(tuple(g[:2]), tuple(x[:2]), tuple(x[2:])),
            d_alpha_numeric(tuple(g[:2]), tuple(x[:2]), tuple(x[2:])),
            d_R_numeric(*x[:3]),
            left_invariance_check(g[2], g[0], g[1], x[0], x[1]),
            left_invariance_fd_residual(g[2], g[0], g[1], x[0]),
            pushforward_fd_residual(g[0], g[1], x[0], x[1]))
        for t in range(3):
            gt = [DiscreteLoop(a.samples[t]) for a in g]
            xt = [LoopTangent(a.samples[t]) for a in x]
            single = (
                eval_R(xt[0], xt[1]), eval_alpha(gt[1], xt[0]),
                delta_form_alpha(tuple(gt), tuple(xt[:3])),
                delta_form_R(tuple(gt[:2]), tuple(xt[:2]), tuple(xt[2:])),
                d_alpha_numeric(tuple(gt[:2]), tuple(xt[:2]), tuple(xt[2:])),
                d_R_numeric(*xt[:3]),
                left_invariance_check(gt[2], gt[0], gt[1], xt[0], xt[1]),
                left_invariance_fd_residual(gt[2], gt[0], gt[1], xt[0]),
                pushforward_fd_residual(gt[0], gt[1], xt[0], xt[1]))
            for many, one in zip(stacked, single):
                assert many.shape == (3,) and type(one) is float
                assert abs(many[t] - one) <= 1e-15


def _chart_tangents_with_base(base, field, directions, h):
    # the chart tangents with the base loop multiplied into every
    # exponential, as (g exp(F))^-1 (g exp(F + hD) - g exp(F - hD)) / 2h
    exps = exp_stack(np.stack([field] + [field + s * h * d for d in directions
                                         for s in (1.0, -1.0)]))
    # (products through the same stacked kernel as forms, so that the
    # comparison below is bit for bit)
    u0_inv = np.conjugate(np.swapaxes(_matmul(base, exps[0]), -1, -2))
    return [project_algebra(_matmul(u0_inv, _matmul(base, exps[2 * k + 1])
                                    - _matmul(base, exps[2 * k + 2]))
                            / (2.0 * h))
            for k in range(len(directions))]


def _left_invariance_fd_with_charts(k, g1, g2, x1, h=1e-3):
    # the chart formula at g1 and k g1, exp(0) included
    bases = np.stack((g1.samples, k.multiply(g1).samples))
    (tan,) = _chart_tangents_with_base(bases, np.zeros_like(x1.samples),
                                       (x1.samples,), h)
    here, there = eval_alpha(g2, LoopTangent(tan))
    return _as_result(abs(here - there))


def test_left_invariance_fd_matches_the_chart_formula_exactly():
    fixtures = [(_loop(59, 0), _loop(59, 1), _loop(59, 2), _tan(59, 3))]
    for dim in (2, 3):
        g = [random_smooth_loop(61, dim, 64, 3,
                                stream=[10 * k + t for t in range(3)])
             for k in range(3)]
        x = random_smooth_tangent(61, dim, 64, 3, stream=[5, 6, 7])
        fixtures.append((g[2], g[0], g[1], x))
    for k, g1, g2, x1 in fixtures:
        got = left_invariance_fd_residual(k, g1, g2, x1)
        want = _left_invariance_fd_with_charts(k, g1, g2, x1)
        assert np.array_equal(got, want)


def test_pushforward_fourth_order_at_dim_eight():
    # a stack of 8 dim-8 battery trials (N = 128, modes 3): the
    # second-order stencil reads about 1e-7 here
    s = _streams(np.arange(8))
    g1, g2 = (random_smooth_loop(0, 8, 128, 3, stream=s[k])
              for k in ("g1", "g2"))
    x1, x2 = (random_smooth_tangent(0, 8, 128, 3, stream=s[k])
              for k in ("x1", "x2"))
    assert pushforward_fd_residual(g1, g2, x1, x2).max() <= 1e-9


def _merge_without_ad(i, loops, tangents):
    # the G x G -> G merge with X1 pushed forward as X1 instead of
    # Ad(g2^-1) X1; only delta_form_R takes this merge in forms, and
    # verify's pushforward_merge row keeps its own binding
    if len(loops) == 2 and i == 1:
        return (loops[0].multiply(loops[1]),), (tangents[0] + tangents[1],)
    return face_pushforward(i, loops, tangents)


def _merge_with_ad_g2(i, loops, tangents):
    # the merge with X1 pushed forward as Ad(g2) X1 instead of Ad(g2^-1) X1
    (merged,), _ = face_pushforward(i, loops, tangents)
    return (merged,), (conjugate_tangent(loops[1], tangents[0])
                       + tangents[1],)


@pytest.mark.parametrize("dim", [2, 3])
def test_pushforward_row_fails_with_ad_g2(monkeypatch, dim):
    # the stencil differentiates P(t) on its own, so a merge tangent with
    # the wrong adjoint fails its row, and no other
    monkeypatch.setattr(verify, "face_pushforward", _merge_with_ad_g2)
    checks = run_gamma_battery(dim=dim, samples=64, trials=4, seed=3)
    assert [c.name for c in checks if not c.passed] == ["pushforward_merge"]
    (row,) = [c for c in checks if c.name == "pushforward_merge"]
    assert row.residual > 1e3 * row.tolerance


def _d_R_one_sign_flipped(x, y, z):
    bracket = forms._bracket
    return (eval_R(bracket(x, y), z) + eval_R(bracket(x, z), y)
            - eval_R(bracket(y, z), x))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("mutation, row", [
    ("pushforward_without_ad", "delta_R_vs_d_alpha"),
    ("d_R_sign_flip", "closedness"),
    ("negate_alpha", "delta_R_vs_d_alpha"),
])
def test_mutation_fails_only_its_row(monkeypatch, mutation, row, dim):
    alpha_sign = 1.0
    if mutation == "pushforward_without_ad":
        monkeypatch.setattr(forms, "face_pushforward", _merge_without_ad)
    elif mutation == "d_R_sign_flip":
        monkeypatch.setattr(verify, "d_R_numeric", _d_R_one_sign_flipped)
    else:
        alpha_sign = -1.0
    checks = run_gamma_battery(dim=dim, samples=64, trials=4, seed=3,
                               alpha_sign=alpha_sign)
    assert [c.name for c in checks if not c.passed] == [row]


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_battery_residuals_do_not_depend_on_the_stacking(monkeypatch, dim):
    # 11 trials at N = 64: one stack at dims 2 and 3, stacks of 5, 5 and 1
    # at dim 5; against one trial per stack, every residual is equal
    stacked = run_gamma_battery(dim=dim, samples=64, trials=11, seed=6)
    monkeypatch.setattr(verify, "_STACK_ENTRIES", 1)
    single = run_gamma_battery(dim=dim, samples=64, trials=11, seed=6)
    assert [c.residual for c in stacked] == [c.residual for c in single]
    assert stacked == single
