"""Discretized loops in SU(n) and their left-trivialized tangent fields.

A loop is sampled at N uniform angles theta_j = 2 pi j / N with N a power
of two, so derivatives in theta can be taken spectrally (exact for
band-limited data, exponentially accurate for the analytic loops produced
by the band-limited synthesis below).  A tangent vector at the loop g is
the curve t -> g exp(tX) for an su(n)-valued sample field X; only X is
stored.

Samples have shape (..., N, n, n): any leading axes stack independent
loops (or tangents), and every operation here acts on each entry of the
stack separately, so a stack of B loops costs one call, not B.  They are
stored entry-major (su._entry_major): matrix entries outermost, samples
innermost, so each [..., i, j] is one C-contiguous plane over the stack
and the samples.  The products and the FFT along the sample axis then
read whole planes instead of strided gathers.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import stream_draws
from .su import (_dagger, _entry_major, _gaussian_algebra, _matmul,
                 assert_algebra, assert_special_unitary, exp_stack,
                 project_algebra)

MIN_SAMPLES = 16


def _check_grid(num):
    if num < MIN_SAMPLES or num & (num - 1):
        raise ValueError("sample count must be a power of two >= %d"
                         % MIN_SAMPLES)


def _as_result(values):
    """A 0-d result as a float; a stacked result stays an array."""
    values = np.asarray(values)
    return float(values) if values.ndim == 0 else values


def _check_synthesis(num_samples, modes):
    _check_grid(num_samples)
    if not 0 <= modes <= num_samples // 8:
        raise ValueError("modes must be in 0..N/8 for spectral headroom")


def theta_grid(num_samples):
    return 2.0 * np.pi * np.arange(num_samples) / num_samples


def _entry_major_copy(values):
    out = _entry_major(values.shape)
    np.copyto(out, values)
    return out


def _frozen(values):
    """values stored entry-major (copied only if they are not) and
    read-only."""
    if not values[..., 0, 0].flags.c_contiguous:
        values = _entry_major_copy(values)
    values.setflags(write=False)
    return values


def _checked_shape(samples, what):
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.ndim < 3 or not samples.shape[-1] == samples.shape[-2] >= 1:
        raise ValueError("%s samples need shape (..., N, n, n), n > 0" % what)
    _check_grid(samples.shape[-3])
    return samples


def _ingest(samples, what):
    return _frozen(_checked_shape(samples, what))


@dataclass(frozen=True)
class _Sampled:
    """Read-only complex128 samples of a loop or tangent field; the public
    constructor checks that they are members (SU(n) or su(n))."""

    samples: np.ndarray

    def __post_init__(self):
        # a copy, so that no array or view the caller keeps can write to
        # (or be frozen with) the validated samples
        samples = _frozen(_entry_major_copy(
            _checked_shape(self.samples, type(self).__name__)))
        self._check_members(samples)
        object.__setattr__(self, "samples", samples)

    @classmethod
    def _trusted(cls, samples):
        """Store samples that are members by construction, unchecked.
        They must be a fresh array: if entry-major it is stored as it is
        and frozen, otherwise copied entry-major."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "samples", _ingest(samples, cls.__name__))
        return obj

    def _once(self, other, make):
        """make(), formed once per other operand and kept with self (one
        kind of product per class); other is held weakly, so kept products
        form no reference cycle, and a dead entry is never reused."""
        formed = self.__dict__.setdefault("_formed", {})
        ref, value = formed.get(id(other), (None, None))
        if ref is None or ref() is not other:
            value = make()
            formed[id(other)] = weakref.ref(other), value
        return value

    @property
    def num_samples(self):
        return self.samples.shape[-3]

    @property
    def dim(self):
        return self.samples.shape[-1]


class DiscreteLoop(_Sampled):
    """N samples of a smooth map from the circle into SU(n), or a stack of
    such loops along leading axes."""

    _check_members = staticmethod(assert_special_unitary)

    @cached_property
    def log_derivative(self):
        """right_log_derivative of the loop, computed once (read-only)."""
        return _frozen(right_log_derivative(self))

    def multiply(self, other):
        return self._once(other, lambda: DiscreteLoop._trusted(
            _matmul(self.samples, other.samples)))

    def inverse(self):
        return DiscreteLoop._trusted(_dagger(self.samples))


class _LazyProduct(DiscreteLoop):
    """The loop a b, formed when its samples are first read."""

    def __init__(self, a, b):
        object.__setattr__(self, "_factors", (a, b))

    @cached_property
    def samples(self):
        a, b = self._factors
        return _ingest(_matmul(a.samples, b.samples), "DiscreteLoop")


class LoopTangent(_Sampled):
    """Left-trivialized tangent field: su(n)-valued samples on the grid,
    or a stack of such fields along leading axes."""

    # keeps ndarray * LoopTangent from broadcasting over the tangent as an
    # object, so that the product reaches __rmul__
    __array_ufunc__ = None
    _check_members = staticmethod(assert_algebra)

    @cached_property
    def derivative(self):
        """spectral_derivative of the samples, computed once (read-only)."""
        return _frozen(spectral_derivative(self.samples))

    def adjoint_inverse(self, loop):
        """Ad(g^{-1}) X for the loop g, formed once per loop."""
        return self._once(
            loop, lambda: conjugate_tangent(loop.inverse(), self))

    def __add__(self, other):
        return LoopTangent._trusted(self.samples + other.samples)

    def __sub__(self, other):
        return LoopTangent._trusted(self.samples - other.samples)

    def __neg__(self):
        return LoopTangent._trusted(-self.samples)

    def __rmul__(self, scalar):
        """Finite real scalar times the field; an array of scalars scales
        each entry of the stack by its own value."""
        if np.iscomplexobj(scalar):
            raise TypeError("su(n) is a real vector space: scalars must be real")
        scale = np.asarray(scalar, dtype=np.float64)
        if not np.isfinite(scale).all():
            raise ValueError("tangent scalars must be finite")
        return LoopTangent._trusted(
            scale[..., None, None, None] * self.samples)

    __mul__ = __rmul__


def constant_loop(dim, num_samples):
    """The constant identity loop."""
    return DiscreteLoop._trusted(
        np.broadcast_to(np.eye(dim), (num_samples, dim, dim)))


def conjugate_tangent(conjugator, tangent):
    """Samplewise g X g^{-1}; with conjugator = g2.inverse() this is the
    adjoint action Ad(g2^{-1}) appearing in the merge pushforward."""
    g = conjugator.samples
    return LoopTangent._trusted(project_algebra(
        _matmul(_matmul(g, tangent.samples), _dagger(g))))


# ---------------------------------------------------------------------------
# spectral calculus on the uniform grid

def spectral_derivative(values):
    """d/dtheta of a periodic (..., N, n, n) sample array along its
    sample axis.

    Multiplies mode k by ik over the centered alias range and zeroes the
    Nyquist mode.  The result is entry-major.
    """
    values = np.asarray(values)
    num = values.shape[-3]
    k = np.fft.fftfreq(num, d=1.0 / num)
    k[num // 2] = 0.0  # Nyquist
    spec = np.fft.fft(values, axis=-3, out=_entry_major(values.shape))
    spec *= (1j * k)[:, None, None]
    return np.fft.ifft(spec, axis=-3, out=spec)


def right_log_derivative(loop):
    """(d_theta g) g^{-1}: the su(n)-valued angular variation of the loop."""
    return _matmul(spectral_derivative(loop.samples),
                   _dagger(loop.samples))


def circle_integral(values):
    """Trapezoidal rule on the periodic grid: (2 pi / N) * sum over the
    last axis.  A 1-D array gives a float; a (..., N) stack gives one
    value per leading index."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim < 1:
        raise ValueError("circle_integral expects real samples along the "
                         "last axis")
    return _as_result(2.0 * np.pi * values.sum(axis=-1) / values.shape[-1])


# ---------------------------------------------------------------------------
# seeded synthesis of smooth band-limited inputs

LOOP_AMPLITUDE = 0.4
TANGENT_AMPLITUDE = 0.5


def _smooth_field(seed, dim, num_samples, modes, stream, constant, decay):
    """Band-limited su(n) field sum_k cos(k theta) A_k + sin(k theta) B_k,
    with scale decay(k) per mode (and a constant mode first if asked).

    A sequence of streams gives one field per stream, stacked along a
    leading axis; each entry's coefficients are drawn from its own stream.
    The field is one contraction of the (K, N) basis of constant, cos and
    sin rows with the coefficients' real and imaginary parts, summed in
    mode order (as the mode-by-mode sum, bit for bit), written
    entry-major.
    """
    _check_synthesis(num_samples, modes)
    streams = np.asarray(stream)
    leading = [constant] if constant else []
    scales = np.array(leading + [decay(k) for k in range(1, modes + 1)
                                 for _ in (0, 1)])
    normals = stream_draws(seed, streams.reshape(-1), "standard_normal",
                           scales.shape + (2, dim, dim))
    coeffs = _gaussian_algebra(normals, scales)
    theta = theta_grid(num_samples)
    basis = np.empty((len(scales), num_samples))
    basis[:len(leading)] = 1.0
    for k in range(1, modes + 1):
        j = len(leading) + 2 * k - 2          # A_k, then B_k
        basis[j] = np.cos(k * theta)
        basis[j + 1] = np.sin(k * theta)
    field = _entry_major((streams.size, num_samples, dim, dim))
    for part in ("real", "imag"):
        np.einsum("kn,skab->snab", basis, getattr(coeffs, part),
                  out=getattr(field, part))
    return field.reshape(streams.shape + (num_samples, dim, dim))


def random_smooth_loop(seed, dim, num_samples, modes, stream=0):
    """exp of a random band-limited su(n) field with 1/k^2 mode decay.

    The Fourier data depends only on (seed, stream, dim, modes), so the
    same seed sampled at 2N refines the same smooth loop.  A sequence of
    streams gives a stack of loops, one per stream.
    """
    field = _smooth_field(seed, dim, num_samples, modes, stream, 0.0,
                          lambda k: LOOP_AMPLITUDE / k**2)
    return DiscreteLoop(exp_stack(field))


def random_smooth_tangent(seed, dim, num_samples, modes, stream=0):
    """Random band-limited su(n)-valued tangent field (includes a constant
    mode), with the same resolution-independence and stacking contract as
    the loops."""
    field = _smooth_field(seed, dim, num_samples, modes, stream,
                          TANGENT_AMPLITUDE,
                          lambda k: TANGENT_AMPLITUDE / (1 + k**2))
    return LoopTangent(field)
