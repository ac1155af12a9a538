"""Period of R over a 2-sphere of loops in SU(2).

The generator family: for the unit vector
nu(u, phi) = (sin u cos phi, sin u sin phi, cos u) the based loop

    g_{u,phi}(theta) = exp(theta * i nu . sigma)
                     = cos(theta) I + i sin(theta) (nu . sigma)

closes because (nu . sigma)^2 = I.  At u = 0 and u = pi the loop is
independent of phi, so the family is a 2-sphere in the loop group.  The
left-trivialized parameter tangents have the closed form

    X_u   = i sin(theta) cos(theta) (d_u nu . sigma) + i sin^2(theta) ((nu x d_u nu) . sigma)

and likewise for phi.  The period is the quadrature of R(X_u, X_phi) over
the parameter rectangle, Simpson in u and periodic trapezoid in phi.
R itself carries the 1/(4 pi^2) normalization, under which the periods of
R land on integers: the corresponding bundle curvature is 2 pi i R, whose
periods then lie in 2 pi i Z.

Both tangents are sums p_1(theta) C_1 + p_2(theta) C_2 of the same two
theta profiles p_1 = sin cos and p_2 = sin^2 times constant su(2)
coefficient blocks C_a.  The discrete R is bilinear, so at every node

    R(X_u, X_phi) = sum_ab G_ab <A_a, B_b>

with A, B the blocks of X_u, X_phi and G the 2 x 2 Gram matrix of the
profiles under the discrete R (spectral derivative, trapezoid rule,
1/(4 pi^2)), computed once per family.  Each block is i v . sigma for a
real 3-vector v, and <i v . sigma, i w . sigma> = 2 v . w, so the
quadrature pairs 3-vectors only (_vector_pairs, with the bits of the
Killing form of the blocks); one row per grid is also summed by full
eval_R on sampled tangents as a cross-check (equator_rows, reported as
period_gram_row).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import FOUR_PI_SQUARED, eval_R
from .loops import (DiscreteLoop, LoopTangent, _check_grid, circle_integral,
                    constant_loop, spectral_derivative, theta_grid)
from .su import _entry_major

PAULI = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=np.complex128)

# the su(2) basis i sigma_k, each flattened to a row of 4 entries
_I_SIGMA = 1j * PAULI.reshape(3, 4)


def _vectors(x, y, z):
    """Stack three broadcast components into (..., 3) real 3-vectors."""
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


def _profiles(num_samples):
    """The two theta profiles (sin cos, sin^2) as an (N, 2) array."""
    theta = theta_grid(num_samples)
    return np.stack([np.sin(theta) * np.cos(theta), np.sin(theta) ** 2],
                    axis=-1)


def profile_gram(num_samples):
    """G[a, b] = R(p_a, p_b) for the scalar theta profiles: the discrete
    eval_R (spectral derivative of the second slot, trapezoid rule,
    1/(4 pi^2)) with the Killing pairing of the matrix parts left out.
    Antisymmetric up to round-off, like R."""
    profiles = _profiles(num_samples).T
    slope = spectral_derivative(profiles[:, :, None, None])[..., 0, 0].real
    return circle_integral(profiles[:, None, :] * slope[None, :, :]) \
        / FOUR_PI_SQUARED


def _nu(u, phi):
    return _vectors(np.sin(u) * np.cos(phi), np.sin(u) * np.sin(phi),
                    np.cos(u))


def _nu_du(u, phi):
    return _vectors(np.cos(u) * np.cos(phi), np.cos(u) * np.sin(phi),
                    -np.sin(u))


def _nu_dphi(u, phi):
    return _vectors(-np.sin(u) * np.sin(phi), np.sin(u) * np.cos(phi), 0.0)


@dataclass(frozen=True)
class SphereFamily:
    """Rectangular (u, phi) grid of loops from the generator rule above.

    grid_u Simpson intervals cover u in [0, pi] (grid_u must be even);
    grid_phi trapezoid nodes cover phi in [0, 2 pi).  orientation = -1
    traverses phi backwards; degenerate = True replaces every loop by the
    constant identity loop (test hook).
    """

    grid_u: int
    grid_phi: int
    num_samples: int
    orientation: int = 1
    degenerate: bool = False

    def __post_init__(self):
        if self.grid_u < 2 or self.grid_u % 2:
            raise ValueError("grid_u must be an even number of intervals >= 2")
        if self.grid_phi < 4:
            raise ValueError("grid_phi must be >= 4")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        _check_grid(self.num_samples)

    def node(self, i, j):
        u = np.pi * i / self.grid_u
        phi = self.orientation * 2.0 * np.pi * j / self.grid_phi
        return u, phi

    def loop_at(self, u, phi):
        n_samp = self.num_samples
        if self.degenerate:
            return constant_loop(2, n_samp)
        theta = theta_grid(n_samp)
        nu_sigma = np.tensordot(_nu(u, phi), PAULI, axes=1)
        samples = (np.cos(theta)[:, None, None] * np.eye(2)
                   + 1j * np.sin(theta)[:, None, None] * nu_sigma)
        return DiscreteLoop._trusted(samples)

    def coefficient_vectors(self, u, phi):
        """Real 3-vectors v of the (d_u, d_phi) tangents' coefficient
        blocks i v . sigma: two (..., 2, 3) arrays, [..., a, :] for the
        theta profile p_a (see _profiles), stacked along the broadcast
        shape of u, phi; zero for the degenerate family."""
        phi = np.asarray(phi, dtype=np.float64)
        shape = np.broadcast_shapes(np.shape(u), phi.shape)
        if self.degenerate:
            zero = np.zeros(shape + (2, 3))
            return zero, zero
        nu = _nu(u, phi)
        slopes = ((_nu_du(u, phi), 1.0),
                  (_nu_dphi(u, phi), float(self.orientation)))
        return tuple(scale * np.stack([dnu, np.cross(nu, dnu)], axis=-2)
                     for dnu, scale in slopes)

    def coefficient_blocks(self, u, phi):
        """The blocks i v . sigma of coefficient_vectors, (..., 2, 2, 2)."""
        return tuple((v @ _I_SIGMA).reshape(v.shape[:-1] + (2, 2))
                     for v in self.coefficient_vectors(u, phi))

    def tangents_at(self, u, phi):
        """Left-trivialized (d_u, d_phi) tangent fields, analytic, written
        entry-major.  An array of phi gives tangents stacked along its
        shape."""
        profiles = _profiles(self.num_samples)
        stack = np.shape(phi)
        shape = stack + (self.num_samples, 2, 2)
        tangents = []
        for block in self.coefficient_blocks(u, phi):
            samples = _entry_major(shape)
            np.matmul(profiles, block.reshape(stack + (2, 4)),
                      out=samples.reshape(stack + (self.num_samples, 4)))
            tangents.append(LoopTangent._trusted(samples))
        return tuple(tangents)


def _simpson_weights(intervals):
    w = np.ones(intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


_STACK_NODES = 1024      # most (u, phi) nodes that _row_sums pairs at once


def _vector_pairs(v, w):
    """<A_a, B_b>[..., a, b] from the (..., 2, 3) vectors of A and B:
    2 v . w, summed as -tr(XY) sums the entries of the blocks (v3 w3, then
    v1 w1 + v2 w2 twice, then v3 w3), for the bits of killing_form_samples."""
    v, w = v[..., :, None, :], w[..., None, :, :]
    off = v[..., 0] * w[..., 0] + v[..., 1] * w[..., 1]
    diag = v[..., 2] * w[..., 2]
    return diag + off + off + diag


def _row_sums(family, rows, gram):
    """Sum over phi of sum_ab G_ab <A_a, B_b> on each u-row in rows."""
    u, phi = family.node(np.asarray(rows)[:, None],
                         np.arange(family.grid_phi))
    pairs = _vector_pairs(*family.coefficient_vectors(u, phi))
    return (pairs * gram).sum(axis=(-2, -1)).sum(axis=-1)


def sphere_period(family):
    """Quadrature of R over the family's parameter rectangle.

    Returns the raw real period; integrality means this is (close to) an
    integer, the pairing of the 2 pi i-normalized bundle curvature with
    the cycle divided by 2 pi i.

    Each node value is sum_ab G_ab <A_a, B_b> (module docstring), with
    G from profile_gram once per family, so the cost is grid_u * grid_phi
    vector pairings and no tangent is sampled.  The grid is paired in
    stacks of u-rows of at most _STACK_NODES nodes, then the row sums are
    accumulated one at a time.  equator_rows checks one row by eval_R.
    """
    nu_grid, nphi = family.grid_u, family.grid_phi
    du = np.pi / nu_grid
    dphi = 2.0 * np.pi / nphi
    w_u = _simpson_weights(nu_grid) * du
    gram = profile_gram(family.num_samples)
    stack = max(1, _STACK_NODES // nphi)
    total = 0.0
    for first in range(0, nu_grid + 1, stack):
        rows = np.arange(first, min(first + stack, nu_grid + 1))
        for i, row in zip(rows, _row_sums(family, rows, gram)):
            total += w_u[i] * row * dphi
    return float(total)


def equator_rows(family):
    """The equator row (i = grid_u / 2) summed two ways: through the Gram
    matrix as in sphere_period, and by full eval_R on tangents_at, which
    samples every tangent and differentiates it spectrally.  Returns
    (gram_sum, full_sum); they agree up to round-off."""
    i = family.grid_u // 2
    u, phi = family.node(i, np.arange(family.grid_phi))
    (gram_sum,) = _row_sums(family, [i], profile_gram(family.num_samples))
    full_sum = eval_R(*family.tangents_at(u, phi)).sum()
    return float(gram_sum), float(full_sum)
