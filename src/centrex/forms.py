"""The loop-group 2-form R, the 1-form alpha, and their simplicial calculus.

With left-trivialized tangents gX, gY at a loop g and the invariant form
<.,.> = -tr on su(n):

    R(g)(gX, gY)             = 1/(4 pi^2) * integral <X, d_theta Y> dtheta
    alpha(g1, g2)(g1X1, g2X2) = 1/(4 pi^2) * integral <X1, (d_theta g2) g2^{-1}> dtheta

R does not see the base loop and alpha sees neither g1 nor X2: that is
left invariance (in the first factor, for alpha), enforced here by the
interfaces simply not taking the absent arguments.  The simplicial
coboundary on forms is the alternating sum of pullbacks along the face
maps of the group's nerve.  The exterior derivatives are evaluated in
closed form on left-invariant vector fields, where the Lie bracket is the
samplewise commutator (the Chevalley-Eilenberg differential): dR reduces
to the cocycle identity of the loop-algebra 2-cocycle R, and dalpha to
three circle integrals at g2.

Every evaluation accepts loops and tangents stacked along leading axes
(see loops.py) and then returns one value per stack entry, as an array;
unstacked arguments give a float.
"""

from __future__ import annotations

import numpy as np

from .loops import (LoopTangent, _as_result, circle_integral,
                    conjugate_tangent, right_log_derivative,
                    spectral_derivative)
from .su import (_dagger, _matmul, exp_stack, killing_form_samples,
                 project_algebra)

FOUR_PI_SQUARED = 4.0 * np.pi**2
# central-difference step of left_invariance_fd_residual
LEFT_INVARIANCE_STEP = 1e-3


def _check_pair(x, y):
    if x.num_samples != y.num_samples or x.dim != y.dim:
        raise ValueError("mismatched sample count or matrix dimension")


def _pairing(x, values):
    """1/(4 pi^2) * integral <X, V> dtheta for a tangent X and sampled V."""
    return circle_integral(killing_form_samples(x.samples, values)) \
        / FOUR_PI_SQUARED


def eval_R(x, y):
    """R paired against two left-trivialized tangents (base loop irrelevant)."""
    _check_pair(x, y)
    return _pairing(x, spectral_derivative(y.samples))


def eval_alpha(g2, x1):
    """alpha at a point of G x G: needs only the second loop and the
    first-slot tangent."""
    _check_pair(g2, x1)
    return _pairing(x1, right_log_derivative(g2))


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


def _bracket(x, y):
    """Samplewise commutator [X, Y] of two tangent fields (again su(n))."""
    return LoopTangent._trusted(_matmul(x.samples, y.samples)
                                - _matmul(y.samples, x.samples))


def d_alpha_numeric(point, xi, eta, alpha_sign=1.0):
    """d(alpha) at (g1, g2) on the left-invariant fields (X1, X2), (Y1, Y2):

        dalpha(xi, eta) = xi[alpha(eta)] - eta[alpha(xi)] - alpha([xi, eta])
            = 1/(4 pi^2) * integral <Y1, Ad(g2) X2'> - <X1, Ad(g2) Y2'>
                                    - <[X1, Y1], g2' g2^{-1}> dtheta

    since moving g2 along g2 exp(tX2) changes g2' g2^{-1} by Ad(g2) X2'
    at first order, and the bracket of left-invariant fields is the
    samplewise commutator.  Exact up to the spectral error of the theta
    derivatives; g1 drops out because alpha does not read it.  The pushed
    tangents of face_pushforward are not used, so delta_form_R is checked
    against independent code.
    """
    _, g2 = point
    (x1, x2), (y1, y2) = xi, eta
    g, g_inv = g2.samples, _dagger(g2.samples)

    def ad_slope(tangent):
        return _matmul(_matmul(g, spectral_derivative(tangent.samples)), g_inv)

    total = (_pairing(y1, ad_slope(x2)) - _pairing(x1, ad_slope(y2))
             - eval_alpha(g2, _bracket(x1, y1)))
    return alpha_sign * total


def d_R_numeric(x, y, z):
    """d(R) on the left-invariant fields X, Y, Z; the closedness residual.

    R(Y, Z) and its companions are constant on left-invariant fields, so
    only the bracket terms of the exterior derivative survive:

        dR(X, Y, Z) = -R([X, Y], Z) + R([X, Z], Y) - R([Y, Z], X)

    which is zero by the cocycle identity of the loop-algebra 2-cocycle
    (integration by parts and ad-invariance of <.,.>).  For band-limited
    fields whose products stay below the Nyquist mode only round-off
    remains.
    """
    return (-eval_R(_bracket(x, y), z) + eval_R(_bracket(x, z), y)
            - eval_R(_bracket(y, z), x))


def left_invariance_check(k, g1, g2, x1, y1):
    """Left translation by k against left-trivialization, on alpha and R.

    The raw tangents g1 X1 and g1 Y1 at g1 are translated exactly to
    k (g1 X) at k g1 and left-trivialized there as (k g1)^{-1} k g1 X.
    Returns the larger of |alpha(g2) on the translated X1 - alpha(g2)(X1)|
    and |R on the translated pair - R(X1, Y1)|: zero up to the round-off
    of the products, and large if translation and trivialization stop
    agreeing (a base that is not in SU(n), for instance).
    """
    base_inv = _dagger(k.multiply(g1).samples)
    moved = [LoopTangent._trusted(_matmul(
        base_inv, _matmul(k.samples, _matmul(g1.samples, t.samples))))
        for t in (x1, y1)]
    return _as_result(np.maximum(
        abs(eval_alpha(g2, moved[0]) - eval_alpha(g2, x1)),
        abs(eval_R(*moved) - eval_R(x1, y1))))


def left_invariance_fd_residual(k, g1, g2, x1):
    """Chart-level cross-check of left invariance: extract the tangent of
    t -> g exp(tX1) by central differences (step LEFT_INVARIANCE_STEP) at
    g = g1 and at g = k g1, and compare the alpha pairings.  Algebraically
    identical; only float noise from the extra multiplication survives.
    The difference is formed with g multiplied in, since translating g is
    the point."""
    h = LEFT_INVARIANCE_STEP
    bases = np.stack((g1.samples, k.multiply(g1).samples))
    plus, minus = exp_stack(np.stack((h * x1.samples, -h * x1.samples)))
    tan = LoopTangent._trusted(project_algebra(_matmul(
        _dagger(bases), _matmul(bases, plus) - _matmul(bases, minus))
        / (2.0 * h)))
    here, there = eval_alpha(g2, tan)
    return _as_result(abs(here - there))
