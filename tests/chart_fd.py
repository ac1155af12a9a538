"""Second-order chart finite differences of d(alpha) and d(R).

The independent reference for the closed forms in centrex.forms: every
exterior derivative here is taken numerically on coordinate charts
g exp(sX + tY + ...), with central differences of step h in each chart
parameter, so the reference agrees with the closed forms to O(h^2).
"""

import numpy as np

from centrex.forms import eval_R, eval_alpha
from centrex.loops import DiscreteLoop, LoopTangent
from centrex.su import _dagger, exp_stack, project_algebra


def chart_tangents(field, directions, h):
    """Central-difference tangents of t -> g exp(field + t D), one per
    direction D, left-trivialized at t = 0 and projected onto su(n).  The
    base loop g cancels from (g exp(F))^-1 d/dt g exp(F + tD), so it is
    not taken."""
    charts = [field] + [field + s * h * d for d in directions
                        for s in (1.0, -1.0)]
    exps = exp_stack(np.stack(charts))
    u0_inv = _dagger(exps[0])
    return [LoopTangent._trusted(project_algebra(
        u0_inv @ (exps[2 * k + 1] - exps[2 * k + 2]) / (2.0 * h)))
        for k in range(len(directions))]


def fd_d_alpha(point, xi, eta, h, alpha_sign=1.0):
    """d(alpha) on the surface (g1 exp(sX1 + tY1), g2 exp(sX2 + tY2)):
    d_s[alpha(d_t sigma)] - d_t[alpha(d_s sigma)] at s = t = 0."""
    _, g2 = point
    (x1, x2), (y1, y2) = xi, eta

    def alpha_along(move1, move2, direction, s):
        (tan,) = chart_tangents(s * move1.samples, (direction.samples,), h)
        base2 = DiscreteLoop._trusted(
            g2.samples @ exp_stack(s * move2.samples))
        return alpha_sign * eval_alpha(base2, tan)

    term_s = (alpha_along(x1, x2, y1, h)
              - alpha_along(x1, x2, y1, -h)) / (2.0 * h)
    term_t = (alpha_along(y1, y2, x1, h)
              - alpha_along(y1, y2, x1, -h)) / (2.0 * h)
    return term_s - term_t


def fd_d_R(x, y, z, h):
    """d(R) on the family g exp(s1 X + s2 Y + s3 Z), whose coordinate
    fields commute: d1[R(d2, d3)] - d2[R(d1, d3)] + d3[R(d1, d2)]."""
    fields = (x.samples, y.samples, z.samples)

    def pair_value(axis, s, i, j):
        ti, tj = chart_tangents(s * fields[axis], (fields[i], fields[j]), h)
        return eval_R(ti, tj)

    total = 0.0
    for axis, sign, (i, j) in ((0, 1.0, (1, 2)), (1, -1.0, (0, 2)),
                               (2, 1.0, (0, 1))):
        total += sign * (pair_value(axis, h, i, j)
                         - pair_value(axis, -h, i, j)) / (2.0 * h)
    return total
