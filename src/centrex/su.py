"""Numerical kernel for SU(n) and su(n).

Group elements and algebra elements are plain complex ndarrays; the
functions here validate the defining invariants (unitary with unit
determinant, skew-Hermitian traceless) at the stated tolerances.  The
inner product is <X, Y> = -tr(XY), which on su(n) in the defining
representation is the invariant form normalized so the longest root has
squared length 2: for the coroot direction H = diag(i, -i) in su(2),
<H, H> = 2.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

UNITARY_TOL = 1e-10
ALGEBRA_TOL = 1e-12
EXP_OUTPUT_TOL = 1e-9


def _dagger(a):
    return np.conjugate(np.swapaxes(a, -1, -2))


def _frobenius(a):
    """Samplewise Frobenius norm of a C-contiguous stack of complex
    matrices, read as real vectors of length 2 n^2."""
    v = a.view(np.float64).reshape(a.shape[:-2] + (-1,))
    return np.sqrt(np.einsum("...i,...i->...", v, v))


def unitary_residual(g):
    """max of ||g* g - I||_F and |det g - 1| (stacked input: worst sample)."""
    g = np.asarray(g, dtype=np.complex128)
    gram = _dagger(g) @ g
    gram -= np.eye(g.shape[-1])
    frob = _frobenius(gram)
    det = np.abs(np.linalg.det(g) - 1.0)
    return float(np.max(frob, initial=0.0)), float(np.max(det, initial=0.0))


def assert_special_unitary(g, tol=UNITARY_TOL):
    frob, det = unitary_residual(g)
    if frob > tol or det > tol:
        raise ValueError(
            "matrix is not special unitary within %.1e "
            "(unitarity %.3e, det %.3e)" % (tol, frob, det))


def algebra_residual(x):
    """max of ||X + X*||_F and |tr X| (stacked input: worst sample)."""
    x = np.asarray(x, dtype=np.complex128)
    skew = np.conjugate(np.swapaxes(x, -1, -2), order="C")
    skew += x
    frob = _frobenius(skew)
    tr = np.abs(np.einsum("...ii->...", x))
    return float(np.max(frob, initial=0.0)), float(np.max(tr, initial=0.0))


def assert_algebra(x, tol=ALGEBRA_TOL):
    frob, tr = algebra_residual(x)
    if frob > tol or tr > tol:
        raise ValueError(
            "matrix is not in su(n) within %.1e "
            "(skew-Hermiticity %.3e, trace %.3e)" % (tol, frob, tr))


def killing_form(x, y):
    """<X, Y> = -tr(XY); real for skew-Hermitian arguments."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if x.shape != y.shape or x.shape[-1] != x.shape[-2]:
        raise ValueError("killing_form needs two n x n matrices of equal n")
    return float(-np.trace(x @ y).real)


def killing_form_samples(x, y):
    """Samplewise -tr(XY).real over stacked (..., n, n) arrays."""
    return -np.einsum("...ab,...ba->...", x, y).real


def ad_invariance_residual(g, x, y):
    """|<gXg^-1, gYg^-1> - <X, Y>|: zero for the invariant form."""
    gi = _dagger(g)
    return abs(killing_form(g @ x @ gi, g @ y @ gi) - killing_form(x, y))


def project_algebra(m):
    """Orthogonal projection of an arbitrary matrix onto su(n).

    (M - M*)/2 minus its trace part; idempotent, and the identity on
    skew-Hermitian traceless input.
    """
    m = np.asarray(m, dtype=np.complex128)
    n = m.shape[-1]
    skew = (m - _dagger(m)) / 2.0
    tr = np.trace(skew, axis1=-2, axis2=-1) / n
    return skew - tr[..., None, None] * np.eye(n)


def exp_stack(x):
    """Matrix exponential of stacked su(n) elements.

    n = 2 uses the closed form exp(X) = cos(r) I + sinc(r) X with
    r = sqrt(det X) (real and nonnegative for traceless skew-Hermitian
    2 x 2); n >= 3 diagonalizes the Hermitian matrix iX.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    if n == 2:
        det = (x[..., 0, 0] * x[..., 1, 1] - x[..., 0, 1] * x[..., 1, 0]).real
        r = np.sqrt(np.maximum(det, 0.0))
        eye = np.eye(2)
        return (np.cos(r)[..., None, None] * eye
                + np.sinc(r / np.pi)[..., None, None] * x)
    w, q = np.linalg.eigh(1j * x)
    phase = np.exp(-1j * w)
    return (q * phase[..., None, :]) @ _dagger(q)


def exponential(x, tol=EXP_OUTPUT_TOL):
    """Exponential of a single su(n) element, validated into SU(n)."""
    x = np.asarray(x, dtype=np.complex128)
    assert_algebra(x, tol=1e-10)
    g = exp_stack(x)
    frob, det = unitary_residual(g)
    if frob > tol or det > tol:
        raise NumericalError(
            "exponential left SU(n): unitarity %.3e, det %.3e" % (frob, det))
    return g


def random_algebra(rng, n, scale=1.0):
    """Seeded random su(n) element: projected complex Gaussian.  An array
    of scales gives one element per entry, drawn in order."""
    scale = np.asarray(scale, dtype=np.float64)
    m = rng.standard_normal(scale.shape + (2, n, n))
    return (project_algebra(m[..., 0, :, :] + 1j * m[..., 1, :, :])
            * scale[..., None, None])
