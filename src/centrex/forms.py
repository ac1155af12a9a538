"""The loop-group 2-form R, the 1-form alpha, and their simplicial calculus.

With left-trivialized tangents gX, gY at a loop g and the invariant form
<.,.> = -tr on su(n):

    R(g)(gX, gY)             = 1/(4 pi^2) * integral <X, d_theta Y> dtheta
    alpha(g1, g2)(g1X1, g2X2) = 1/(4 pi^2) * integral <X1, (d_theta g2) g2^{-1}> dtheta

R does not see the base loop and alpha sees neither g1 nor X2: that is
left invariance (in the first factor, for alpha), enforced here by the
interfaces simply not taking the absent arguments.  The simplicial
coboundary on forms is the alternating sum of pullbacks along the face
maps of the group's nerve, and the exterior derivative is evaluated by
second-order central differences through exponential charts.

Every evaluation accepts loops and tangents stacked along leading axes
(see loops.py) and then returns one value per stack entry, as an array;
unstacked arguments give a float.
"""

from __future__ import annotations

import numpy as np

from .loops import (DiscreteLoop, LoopTangent, _as_result, circle_integral,
                    conjugate_tangent, right_log_derivative,
                    spectral_derivative)
from .su import _dagger, exp_stack, killing_form_samples, project_algebra

FOUR_PI_SQUARED = 4.0 * np.pi**2
STEP_MIN, STEP_MAX = 1e-4, 1e-2


def _check_pair(x, y):
    if x.num_samples != y.num_samples or x.dim != y.dim:
        raise ValueError("mismatched sample count or matrix dimension")


def eval_R(x, y):
    """R paired against two left-trivialized tangents (base loop irrelevant)."""
    _check_pair(x, y)
    integrand = killing_form_samples(x.samples, spectral_derivative(y.samples))
    return circle_integral(integrand) / FOUR_PI_SQUARED


def eval_alpha(g2, x1):
    """alpha at a point of G x G: needs only the second loop and the
    first-slot tangent."""
    _check_pair(g2, x1)
    integrand = killing_form_samples(x1.samples, right_log_derivative(g2))
    return circle_integral(integrand) / FOUR_PI_SQUARED


def face_pushforward(i, loops, tangents):
    """Differential of the face map d_i on a tuple of loops with
    left-trivialized tangents.

    Drop faces drop the pair; the merge at position i sends
    (g_i, g_{i+1}) to g_i g_{i+1} with tangent Ad(g_{i+1}^{-1}) X_i + X_{i+1}.
    """
    q = len(loops)
    if q not in (2, 3) or len(tangents) != q:
        raise ValueError("face_pushforward expects 2 or 3 (loop, tangent) pairs")
    if not 0 <= i <= q:
        raise IndexError("face index %d out of range 0..%d" % (i, q))
    if i == 0:
        return loops[1:], tangents[1:]
    if i == q:
        return loops[:-1], tangents[:-1]
    a, b = loops[i - 1], loops[i]
    merged = a.multiply(b)
    pushed = conjugate_tangent(b.inverse(), tangents[i - 1]) + tangents[i]
    return (loops[:i - 1] + (merged,) + loops[i + 1:],
            tangents[:i - 1] + (pushed,) + tangents[i + 1:])


def delta_form_R(point, xi, eta):
    """(delta R)(g1, g2) = d0*R - d1*R + d2*R against two tangent pairs."""
    total = 0.0
    for i, sign in ((0, 1.0), (1, -1.0), (2, 1.0)):
        _, x = face_pushforward(i, point, xi)
        _, y = face_pushforward(i, point, eta)
        total += sign * eval_R(x[0], y[0])
    return total


def delta_form_alpha(point, xi, alpha_sign=1.0):
    """(delta alpha)(g1, g2, g3): alternating sum over the four faces.

    Analytically zero, so the return value is its own residual.
    """
    total = 0.0
    for i, sign in ((0, 1.0), (1, -1.0), (2, 1.0), (3, -1.0)):
        loops, tans = face_pushforward(i, point, xi)
        total += sign * alpha_sign * eval_alpha(loops[1], tans[0])
    return total


def _check_step(h):
    if not STEP_MIN <= h <= STEP_MAX:
        raise ValueError("step %.3e outside [%g, %g]" % (h, STEP_MIN, STEP_MAX))


def _chart_tangents(base, field, directions, h):
    """Central-difference tangents of t -> base exp(field + t D), one per
    direction D, left-trivialized at t = 0 and projected back onto su(n).

    ``base`` is a sample array that may carry more leading axes than the
    fields (several base loops sharing one chart).  All exponentials come
    from one exp_stack call, exp(field) once for every direction.
    """
    charts = np.empty((1 + 2 * len(directions),) + field.shape,
                      dtype=np.complex128)
    charts[0] = field
    for k, d in enumerate(directions):
        charts[2 * k + 1] = field + h * d
        charts[2 * k + 2] = field - h * d
    exps = exp_stack(charts)
    u0_inv = _dagger(base @ exps[0])
    return [LoopTangent._trusted(project_algebra(
        u0_inv @ (base @ exps[2 * k + 1] - base @ exps[2 * k + 2]) / (2.0 * h)))
        for k in range(len(directions))]


def d_alpha_numeric(point, xi, eta, h=1e-3, alpha_sign=1.0):
    """d(alpha) on the coordinate surface
    sigma(s, t) = (g1 exp(sX1 + tY1), g2 exp(sX2 + tY2)):

        d(sigma* alpha)(d_s, d_t) = d_s[alpha(d_t sigma)] - d_t[alpha(d_s sigma)]

    with every derivative a second-order central difference; total error O(h^2).
    """
    _check_step(h)
    g1, g2 = point
    (x1, x2), (y1, y2) = xi, eta

    def alpha_along(move1, move2, direction, s):
        # alpha of the coordinate line along `direction`, taken at the
        # point moved by s along (move1, move2)
        (tan,) = _chart_tangents(g1.samples, s * move1.samples,
                                 (direction.samples,), h)
        base2 = DiscreteLoop._trusted(
            g2.samples @ exp_stack(s * move2.samples))
        return alpha_sign * eval_alpha(base2, tan)

    term_s = (alpha_along(x1, x2, y1, h)
              - alpha_along(x1, x2, y1, -h)) / (2.0 * h)
    term_t = (alpha_along(y1, y2, x1, h)
              - alpha_along(y1, y2, x1, -h)) / (2.0 * h)
    return term_s - term_t


def d_R_numeric(loop, x, y, z, h=1e-3):
    """d(R) on the three-parameter family g exp(s1 X + s2 Y + s3 Z):

        dR(d1, d2, d3) = d1[R(d2, d3)] - d2[R(d1, d3)] + d3[R(d1, d2)]

    (coordinate fields commute, so there are no bracket terms); the result
    is the closedness residual, O(h^2) away from zero.
    """
    _check_step(h)
    fields = (x.samples, y.samples, z.samples)

    def pair_value(axis, s, i, j):
        ti, tj = _chart_tangents(loop.samples, s * fields[axis],
                                 (fields[i], fields[j]), h)
        return eval_R(ti, tj)

    total = 0.0
    for axis, sign, (i, j) in ((0, 1.0, (1, 2)),
                               (1, -1.0, (0, 2)),
                               (2, 1.0, (0, 1))):
        total += sign * (pair_value(axis, h, i, j)
                         - pair_value(axis, -h, i, j)) / (2.0 * h)
    return total


def left_invariance_check(k, g1, g2, x1):
    """|alpha at (k g1, g2) - alpha at (g1, g2)| for the same tangent data.

    eval_alpha never reads the first factor, so this is zero by interface;
    the call exists to state the invariance as an executable fact.
    """
    translated = k.multiply(g1)
    assert translated.num_samples == g1.num_samples
    return abs(eval_alpha(g2, x1) - eval_alpha(g2, x1))


def left_invariance_fd_residual(k, g1, g2, x1, h=1e-3):
    """Chart-level cross-check of left invariance: extract the tangent of
    t -> g exp(tX1) by central differences at g1 and at k g1, and compare
    the alpha pairings.  Algebraically identical; only float noise from
    the extra multiplication survives."""
    _check_step(h)
    bases = np.stack((g1.samples, k.multiply(g1).samples))
    (tan,) = _chart_tangents(bases, np.zeros_like(x1.samples),
                             (x1.samples,), h)
    here, there = eval_alpha(g2, tan)
    return _as_result(abs(here - there))
