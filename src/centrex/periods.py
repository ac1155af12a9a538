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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import eval_R
from .loops import (DiscreteLoop, LoopTangent, _check_grid, constant_loop,
                    theta_grid)
from .su import _dagger, project_algebra

PAULI = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=np.complex128)

# the su(2) basis i sigma_k, each flattened to a row of 4 entries
_I_SIGMA = 1j * PAULI.reshape(3, 4)


def _dot_sigma(vec):
    """(v . sigma) for a (..., 3) array of real 3-vectors."""
    return np.tensordot(np.asarray(vec, dtype=np.float64), PAULI, axes=([-1], [0]))


def _vectors(x, y, z):
    """Stack three broadcast components into (..., 3) real 3-vectors."""
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


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
        nu_sigma = _dot_sigma(_nu(u, phi))
        samples = (np.cos(theta)[:, None, None] * np.eye(2)
                   + 1j * np.sin(theta)[:, None, None] * nu_sigma)
        return DiscreteLoop._trusted(samples)

    def tangents_at(self, u, phi):
        """Left-trivialized (d_u, d_phi) tangent fields, analytic.  An
        array of phi gives tangents stacked along its shape."""
        n_samp = self.num_samples
        phi = np.asarray(phi, dtype=np.float64)
        shape = phi.shape + (n_samp, 2, 2)
        if self.degenerate:
            zero = np.zeros(shape, dtype=np.complex128)
            return LoopTangent._trusted(zero), LoopTangent._trusted(zero)
        theta = theta_grid(n_samp)
        # X = (sin cos) i(dnu . sigma) + (sin^2) i((nu x dnu) . sigma): the
        # two theta profiles times one 2 x 4 coefficient block per phi
        profiles = np.stack([np.sin(theta) * np.cos(theta),
                             np.sin(theta) ** 2], axis=-1)
        nu = _nu(u, phi)
        out = []
        for dnu, scale in ((_nu_du(u, phi), 1.0),
                           (_nu_dphi(u, phi), float(self.orientation))):
            vectors = scale * np.stack([dnu, np.cross(nu, dnu)], axis=-2)
            out.append(LoopTangent._trusted(
                (profiles @ (vectors @ _I_SIGMA)).reshape(shape)))
        return out[0], out[1]

    def fd_tangents_at(self, u, phi, h=1e-6):
        """Central-difference alternative to the analytic tangents."""
        g0 = self.loop_at(u, phi)
        g0_inv = _dagger(g0.samples)
        out = []
        for du, dphi in ((h, 0.0), (0.0, h * self.orientation)):
            gp = self.loop_at(u + du, phi + dphi)
            gm = self.loop_at(u - du, phi - dphi)
            diff = (gp.samples - gm.samples) / (2.0 * h)
            out.append(LoopTangent._trusted(project_algebra(g0_inv @ diff)))
        return out[0], out[1]


def _simpson_weights(intervals):
    w = np.ones(intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def sphere_period(family):
    """Quadrature of R over the family's parameter rectangle.

    Returns the raw real period; integrality means this is (close to) an
    integer, the pairing of the 2 pi i-normalized bundle curvature with
    the cycle divided by 2 pi i.  Each u-row of the grid is evaluated as
    one stack of tangents, so only one row is held at a time.
    """
    nu_grid, nphi = family.grid_u, family.grid_phi
    du = np.pi / nu_grid
    dphi = 2.0 * np.pi / nphi
    w_u = _simpson_weights(nu_grid) * du
    columns = np.arange(nphi)
    total = 0.0
    for i in range(nu_grid + 1):
        u, phi = family.node(i, columns)
        row = eval_R(*family.tangents_at(u, phi)).sum()
        total += w_u[i] * row * dphi
    return float(total)
