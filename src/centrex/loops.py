"""Discretized loops in SU(n) and their left-trivialized tangent fields.

A loop is sampled at N uniform angles theta_j = 2 pi j / N with N a power
of two, so derivatives in theta can be taken spectrally (exact for
band-limited data, exponentially accurate for the analytic loops produced
by the band-limited synthesis below).  A tangent vector at the loop g is
the curve t -> g exp(tX) for an su(n)-valued sample field X; only X is
stored.

Samples have shape (..., N, n, n): any leading axes stack independent
loops (or tangents), and every operation here acts on each entry of the
stack separately, so a stack of B loops costs one call, not B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import generator
from .su import (_dagger, _matmul, assert_algebra, assert_special_unitary,
                 exp_stack, project_algebra, random_algebra)

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


def _ingest(samples, what):
    samples = np.ascontiguousarray(samples, dtype=np.complex128)
    if samples.ndim < 3 or not samples.shape[-1] == samples.shape[-2] >= 1:
        raise ValueError("%s samples need shape (..., N, n, n), n > 0" % what)
    _check_grid(samples.shape[-3])
    samples.setflags(write=False)
    return samples


@dataclass(frozen=True)
class _Sampled:
    """Read-only complex128 samples of a loop or tangent field; the public
    constructor checks that they are members (SU(n) or su(n))."""

    samples: np.ndarray

    def __post_init__(self):
        samples = _ingest(self.samples, type(self).__name__)
        self._check_members(samples)
        object.__setattr__(self, "samples", samples)

    @classmethod
    def _trusted(cls, samples):
        """Store samples that are members by construction, unchecked."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "samples", _ingest(samples, cls.__name__))
        return obj

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

    def multiply(self, other):
        return DiscreteLoop._trusted(_matmul(self.samples, other.samples))

    def inverse(self):
        return DiscreteLoop._trusted(_dagger(self.samples))


class LoopTangent(_Sampled):
    """Left-trivialized tangent field: su(n)-valued samples on the grid,
    or a stack of such fields along leading axes."""

    # keeps ndarray * LoopTangent from broadcasting over the tangent as an
    # object, so that the product reaches __rmul__
    __array_ufunc__ = None
    _check_members = staticmethod(assert_algebra)

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


def constant_loop(dim, num_samples, matrix=None):
    if matrix is None:
        return DiscreteLoop._trusted(
            np.broadcast_to(np.eye(dim), (num_samples, dim, dim)))
    return DiscreteLoop(np.broadcast_to(matrix, (num_samples, dim, dim)).copy())


def zero_tangent(dim, num_samples):
    return LoopTangent._trusted(np.zeros((num_samples, dim, dim),
                                         dtype=np.complex128))


def conjugate_tangent(conjugator, tangent):
    """Samplewise g X g^{-1}; with conjugator = g2.inverse() this is the
    adjoint action Ad(g2^{-1}) appearing in the merge pushforward."""
    g = conjugator.samples
    return LoopTangent._trusted(project_algebra(
        _matmul(_matmul(g, tangent.samples), _dagger(g))))


def displace(loop, tangent, amount):
    """The loop g exp(t X), the basic chart around g (t real)."""
    return DiscreteLoop._trusted(
        _matmul(loop.samples, exp_stack((amount * tangent).samples)))


# ---------------------------------------------------------------------------
# spectral calculus on the uniform grid

def spectral_derivative(values):
    """d/dtheta of a periodic (..., N, n, n) sample array along its
    sample axis.

    Multiplies mode k by ik over the centered alias range and zeroes the
    Nyquist mode.
    """
    values = np.asarray(values)
    num = values.shape[-3]
    k = np.fft.fftfreq(num, d=1.0 / num)
    k[num // 2] = 0.0  # Nyquist
    spec = np.fft.fft(values, axis=-3)
    spec *= (1j * k)[:, None, None]
    return np.fft.ifft(spec, axis=-3, out=spec)


def theta_derivative(loop):
    """d/dtheta of a loop (or of any (..., N, n, n) sample array)."""
    samples = loop.samples if isinstance(loop, (DiscreteLoop, LoopTangent)) \
        else np.asarray(loop, dtype=np.complex128)
    return spectral_derivative(samples)


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
    leading axis; each entry's coefficients are drawn from its own stream
    and summed in mode order, exactly as for a single stream.
    """
    _check_synthesis(num_samples, modes)
    streams = np.asarray(stream)
    leading = [constant] if constant else []
    scales = leading + [decay(k) for k in range(1, modes + 1) for _ in (0, 1)]
    coeffs = np.array([random_algebra(generator(seed, int(s)), dim, scales)
                       for s in streams.reshape(-1)],
                      dtype=np.complex128).reshape(
                          (streams.size, len(scales), dim, dim))
    theta = theta_grid(num_samples)
    field = np.zeros((streams.size, num_samples, dim, dim),
                     dtype=np.complex128)
    if leading:
        field += coeffs[:, 0, None]
    for k in range(1, modes + 1):
        j = len(leading) + 2 * k - 2          # A_k, then B_k
        field += np.cos(k * theta)[:, None, None] * coeffs[:, j, None]
        field += np.sin(k * theta)[:, None, None] * coeffs[:, j + 1, None]
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


# ---------------------------------------------------------------------------
# loop file format: header "n N", then N blocks of n*n "re im" entries

def parse_loop(text):
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("loop file must start with 'n N'")
    try:
        dim, num = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ValueError("loop header must be two integers 'n N'")
    if dim < 1 or num < 1:
        raise ValueError("loop header needs n >= 1 and N >= 1")
    need = 2 * num * dim * dim
    body = tokens[2:]
    if len(body) != need:
        raise ValueError("expected %d re/im values, found %d"
                         % (need, len(body)))
    try:
        flat = np.array([float(t) for t in body], dtype=np.float64)
    except ValueError:
        raise ValueError("loop entries must be real numbers")
    # "re im" pairs are the memory layout of complex128
    return DiscreteLoop(flat.view(np.complex128).reshape(num, dim, dim))


def format_loop(loop):
    lines = ["%d %d" % (loop.dim, loop.num_samples)]
    for sample in loop.samples:
        for row in sample:
            lines.append(" ".join("%.17g %.17g" % (z.real, z.imag)
                                  for z in row))
    return "\n".join(lines) + "\n"


def load_loop(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_loop(fh.read())
