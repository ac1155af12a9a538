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

UNITARY_TOL = 1e-10
ALGEBRA_TOL = 1e-12


def _dagger(a):
    return np.conjugate(np.swapaxes(a, -1, -2))


# Largest n whose stacked products _matmul unrolls.  np.matmul makes one
# BLAS call per n x n matrix; on a stack of 1024 complex matrices the
# unrolled loop is about 6x faster at n = 2 and 2.5x at n = 3, and no
# faster than a @ b at n = 4 (README, "Numerical design").  The kernel is
# private, so the benchmark tracer does not wrap it and its time counts
# toward the calling layer.
_MATMUL_UNROLL_MAX = 3


def _matmul(a, b):
    """Samplewise product of two stacks of n x n matrices (broadcast over
    the leading axes; strided views such as _dagger's are fine).

    For n <= _MATMUL_UNROLL_MAX the sum over the contracted index is
    unrolled, one column at a time, into whole-stack array operations:
    out[..., :, k] = sum_j a[..., :, j] * b[..., j, k].  Above that it is
    a @ b.
    """
    n = a.shape[-1]
    if n > _MATMUL_UNROLL_MAX:
        return a @ b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape),
                   dtype=np.result_type(a, b))
    for k in range(n):
        column = out[..., :, k]
        np.multiply(a[..., :, 0], b[..., 0, k, None], out=column)
        for j in range(1, n):
            column += a[..., :, j] * b[..., j, k, None]
    return out


def _frobenius(a):
    """Samplewise Frobenius norm of a C-contiguous stack of complex
    matrices, read as real vectors of length 2 n^2."""
    v = a.view(np.float64).reshape(a.shape[:-2] + (-1,))
    return np.sqrt(np.einsum("...i,...i->...", v, v))


def _det(a):
    """Samplewise determinant of a stack of n x n matrices: the explicit
    cofactor formulas for n <= 3, LAPACK (an LU per matrix) above."""
    n = a.shape[-1]
    if n == 1:
        return a[..., 0, 0]
    if n == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    if n == 3:
        return (a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2]
                                - a[..., 1, 2] * a[..., 2, 1])
                - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2]
                                  - a[..., 1, 2] * a[..., 2, 0])
                + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1]
                                  - a[..., 1, 1] * a[..., 2, 0]))
    return np.linalg.det(a)


def unitary_residual(g):
    """max of ||g* g - I||_F and |det g - 1| (stacked input: worst sample)."""
    g = np.asarray(g, dtype=np.complex128)
    gram = _matmul(_dagger(g), g)
    gram -= np.eye(g.shape[-1])
    frob = _frobenius(gram)
    det = np.abs(_det(g) - 1.0)
    return float(np.max(frob, initial=0.0)), float(np.max(det, initial=0.0))


def assert_special_unitary(g, tol=UNITARY_TOL):
    """ValueError unless every sample is in SU(n); NaN and inf fail."""
    with np.errstate(all="ignore"):
        frob, det = unitary_residual(g)
    if not (frob <= tol and det <= tol):
        raise ValueError(
            "matrix is not in SU(n) within %.1e "
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
    """ValueError unless every sample is in su(n); NaN and inf fail."""
    with np.errstate(all="ignore"):
        frob, tr = algebra_residual(x)
    if not (frob <= tol and tr <= tol):
        raise ValueError(
            "matrix is not in su(n) within %.1e "
            "(skew-Hermiticity %.3e, trace %.3e)" % (tol, frob, tr))


def killing_form_samples(x, y):
    """Samplewise -tr(XY).real over stacked (..., n, n) arrays."""
    return -np.einsum("...ab,...ba->...", x, y).real


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
    2 x 2); n = 3 uses the Cayley-Hamilton closed form of _exp_su3;
    n >= 4 diagonalizes the Hermitian matrix iX.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    if n == 1:
        return np.exp(x)
    if n == 2:
        r = np.sqrt(np.maximum(_det(x).real, 0.0))
        eye = np.eye(2)
        return (np.cos(r)[..., None, None] * eye
                + np.sinc(r / np.pi)[..., None, None] * x)
    if n == 3:
        return _exp_su3(x)
    w, q = np.linalg.eigh(1j * x)
    phase = np.exp(-1j * w)
    return (q * phase[..., None, :]) @ _dagger(q)


# Below this c1 = tr(Q^2)/2 the n = 3 exponential takes the Q -> 0 limit
# f = (1, i, -1/2) of its coefficients, which is exact to O(|Q|^3) < 1e-30.
_SU3_SMALL_C1 = 1e-20


def _exp_su3(x):
    """exp(X) = f0 I + f1 Q + f2 Q^2 for X = iQ in su(3), Q Hermitian
    traceless (Morningstar & Peardon, Phys. Rev. D 69, 054501 (2004),
    Sec. III).

    With c0 = det Q and c1 = tr(Q^2)/2, the eigenvalues of Q are 2u and
    -u +- w, where u = sqrt(c1/3) cos(theta/3), w = sqrt(c1) sin(theta/3)
    and cos(theta) = |c0| / (2 (c1/3)^(3/2)).  The coefficients are taken
    at |c0| and mapped back by f_j(-c0) = (-1)^j conj(f_j(c0)).
    """
    c0 = -_det(x).imag                  # det Q = det(-iX) = i det X, real
    c1 = 0.5 * np.einsum("...ab,...ab->...", x.real, x.real) \
        + 0.5 * np.einsum("...ab,...ab->...", x.imag, x.imag)
    small = c1 < _SU3_SMALL_C1
    c1 = np.where(small, 1.0, c1)
    cos_theta = np.minimum(np.abs(c0) / (2.0 * (c1 / 3.0) ** 1.5), 1.0)
    third = np.arccos(cos_theta) / 3.0
    u = np.sqrt(c1 / 3.0) * np.cos(third)
    w = np.sqrt(c1) * np.sin(third)
    uu, ww = u * u, w * w
    cos_w, xi0 = np.cos(w), np.sinc(w / np.pi)
    e2iu, emiu = np.exp(2j * u), np.exp(-1j * u)
    denom = 9.0 * uu - ww
    f0 = ((uu - ww) * e2iu
          + emiu * (8.0 * uu * cos_w + 2j * u * (3.0 * uu + ww) * xi0)) / denom
    f1 = (2.0 * u * e2iu
          - emiu * (2.0 * u * cos_w - 1j * (3.0 * uu - ww) * xi0)) / denom
    f2 = (e2iu - emiu * (cos_w + 3j * u * xi0)) / denom
    neg = c0 < 0
    f0 = np.where(small, 1.0, np.where(neg, np.conjugate(f0), f0))
    f1 = np.where(small, 1j, np.where(neg, -np.conjugate(f1), f1))
    f2 = np.where(small, -0.5, np.where(neg, np.conjugate(f2), f2))
    # f1 Q = -i f1 X and f2 Q^2 = -f2 X^2
    out = ((-f2)[..., None, None] * _matmul(x, x)
           + (-1j * f1)[..., None, None] * x)
    out[..., (0, 1, 2), (0, 1, 2)] += f0[..., None]
    return out


def _gaussian_algebra(normals, scale):
    """su(n) elements from (..., 2, n, n) standard normals, times scale."""
    return (project_algebra(normals[..., 0, :, :] + 1j * normals[..., 1, :, :])
            * scale[..., None, None])


def random_algebra(rng, n, scale=1.0):
    """Seeded random su(n) element: projected complex Gaussian.  An array
    of scales gives one element per entry, drawn in order."""
    scale = np.asarray(scale, dtype=np.float64)
    return _gaussian_algebra(rng.standard_normal(scale.shape + (2, n, n)),
                             scale)
