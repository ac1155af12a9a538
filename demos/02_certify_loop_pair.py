"""Certifying the loop-group pair (R, alpha) numerically.

R is a 2-form on the loop group of SU(n), alpha a 1-form on its square:

    R(g)(gX, gY)              = 1/(4 pi^2) * int <X, Y'> dtheta
    alpha(g1, g2)(g1X1, g2X2) = 1/(4 pi^2) * int <X1, (g2') g2^{-1}> dtheta

The pair encodes a central extension when delta(R) = d(alpha),
delta(alpha) = 0, R is closed with integral periods, and both forms are
left invariant.  None of these identities is assumed: each one is
evaluated on seeded random smooth loops and the residual printed next to
the tolerance it must beat.  The exterior derivatives are exact on
left-invariant vector fields, whose Lie bracket is the samplewise
commutator, so d(alpha) and d(R) are closed-form circle integrals.
"""

import numpy as np

from centrex import (DiscreteLoop, LoopTangent, delta_form_R,
                     delta_form_alpha, d_alpha_numeric, d_R_numeric, eval_R,
                     eval_alpha, random_smooth_loop, random_smooth_tangent,
                     run_gamma_battery)
from centrex.loops import theta_grid
from centrex.su import exp_stack

N = 128

# ---------------------------------------------------------------------
# 1. Two values you can check by hand.  With H = diag(i, -i), <H, H> = 2:
#    X = H cos(theta), Y = H sin(theta) gives R = 1/(2 pi), and the
#    one-parameter loop exp(theta H) paired with the constant H gives
#    alpha = 1/pi.

theta = theta_grid(N)
H = np.array([[1j, 0], [0, -1j]])
x = LoopTangent(np.cos(theta)[:, None, None] * H)
y = LoopTangent(np.sin(theta)[:, None, None] * H)
print("R(H cos, H sin) = %.12f   (exact 1/(2 pi) = %.12f)"
      % (eval_R(x, y), 1 / (2 * np.pi)))

subgroup = DiscreteLoop(exp_stack(theta[:, None, None] * H))
const = LoopTangent(np.broadcast_to(H, (N, 2, 2)).copy())
print("alpha(exp(theta H); H) = %.12f   (exact 1/pi = %.12f)"
      % (eval_alpha(subgroup, const), 1 / np.pi))

# ---------------------------------------------------------------------
# 2. The two simplicial identities on random smooth loops.

g1 = random_smooth_loop(0, 2, N, 3, stream=0)
g2 = random_smooth_loop(0, 2, N, 3, stream=1)
g3 = random_smooth_loop(0, 2, N, 3, stream=2)
xs = [random_smooth_tangent(0, 2, N, 3, stream=10 + s) for s in range(3)]
ys = [random_smooth_tangent(0, 2, N, 3, stream=20 + s) for s in range(2)]

residual = delta_form_alpha((g1, g2, g3), tuple(xs))
print("\ndelta(alpha) at a random point of G^3: %.3e   (tolerance 1e-9)"
      % abs(residual))

# delta(R) pulls R back along the three face maps of G x G -> G;
# d(alpha) = xi[alpha(eta)] - eta[alpha(xi)] - alpha([xi, eta]) is three
# circle integrals at g2 that do not go through the face maps.
dr = delta_form_R((g1, g2), (xs[0], xs[1]), (ys[0], ys[1]))
da = d_alpha_numeric((g1, g2), (xs[0], xs[1]), (ys[0], ys[1]))
print("delta(R) = %.15f vs d(alpha) = %.15f  (gap %.3e)"
      % (dr, da, abs(dr - da)))
# negating alpha negates d(alpha)
print("with alpha negated the gap is %.3e: the identity is not vacuous"
      % abs(dr + da))

# dR(X, Y, Z) = -R([X, Y], Z) + R([X, Z], Y) - R([Y, Z], X): the cocycle
# identity of the loop-algebra 2-cocycle R
closed = d_R_numeric(xs[0], xs[1], xs[2])
print("d(R) three-slot residual: %.3e" % abs(closed))

# ---------------------------------------------------------------------
# 3. The full battery, as the CLI's `verify` command runs it.

print("\nfull battery (25 trials, n = 2):")
checks = run_gamma_battery(dim=2, samples=N, modes=3, trials=25, seed=0)
for check in checks:
    print("   %-22s residual %.3e  tolerance %.1e  %s"
          % (check.name, check.residual, check.tolerance,
             "PASS" if check.passed else "FAIL"))
print("all passed:", all(c.passed for c in checks))
