"""Seeded trial batteries that certify the loop-form identities.

Each check aggregates the worst residual over the trial count and
compares it against a fixed tolerance derived from the discretization
error models (spectral in theta, round-off for the closed-form exterior
derivatives and left invariance, O(h^4) for the pushforward cross-check,
O(h^2) for the chart-level left-invariance cross-check).  Every report
row carries both the residual and the tolerance it was judged against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .forms import (d_R_numeric, d_alpha_numeric, delta_form_R,
                    delta_form_alpha, eval_R, eval_alpha, face_pushforward,
                    left_invariance_check, left_invariance_fd_residual)
from .loops import (_as_result, _check_grid, random_smooth_loop,
                    random_smooth_tangent)
from .periods import SphereFamily, equator_rows, sphere_period
from .rng import stream_draws
from .su import _dagger, _matmul, exp_stack, project_algebra

TOLERANCES = {
    "antisymmetry": 1e-11,
    "bilinearity": 1e-12,
    "delta_alpha": 1e-9,
    "delta_R_vs_d_alpha": 5e-5,      # relative: |deltaR - dalpha| / (1 + |deltaR|)
    "closedness": 3e-15,             # 10x the worst round-off of a sweep
    "pushforward_merge": 1e-7,       # 4th-order FD cross-check, step 1e-4
    "resolution_doubling": 1e-10,
    "left_invariance": 5e-15,        # 10x the worst round-off of a sweep
    "left_invariance_fd": 1e-9,
}

PUSHFORWARD_STEP = 1e-4
PERIOD_TOLERANCE = 1e-3
DEGENERATE_PERIOD_TOLERANCE = 1e-9
GRAM_ROW_TOLERANCE = 1e-12           # relative: |gram - full| / (1 + |full|)

# Inputs with Fourier modes need N >= 64.  exp of a band-limited field is
# not band-limited, so at N = 16 and 32 the spectral derivatives alias.
# In a tolerance sweep (README) delta_alpha fails on correct code at N = 16
# with 1 or 2 modes and at N = 32 with 4 modes (dims 6 to 8), reads 0.86
# of its tolerance at N = 32 with 3 modes, and at most 1.1e-13 at N >= 64.
# Constant fields (modes = 0) read 0 at every N.
MIN_SAMPLES_WITH_MODES = 64

# Capacity guards, set from the measured cost of the batched code (README).
# The battery costs about trials * samples * dim^2 * (modes + 256) units.
# The offset stands for the fixed work per sample (synthesis of eight
# fields in four calls, five at N and three at 2N; one exponential per
# tangent and step of the pushforward stencil and one for the
# left-invariance chart); it over-counts that work at small modes, so the
# guard is conservative: its corners take 1.4 to 5.8 s (README).  The
# period costs grid_u * grid_phi coefficient-block pairings per grid
# (the doubled grid has four times as many),
# independent of samples, plus one full eval_R row per grid, whose
# doubled-grid row holds 2 * grid_phi * samples matrices.  With
# samples >= 16 the work guard caps the pairings at 2^19 (2^21 doubled)
# and the row guard caps that row; both now admit far less than a 45 s
# budget (README).
BATTERY_MODE_OFFSET = 256
MAX_BATTERY_WORK = 2**27
MAX_PERIOD_WORK = 2**23
MAX_PERIOD_ROW = 2**16


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    trials: int

    def as_dict(self):
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "trials": self.trials,
        }


# Trials are synthesized and checked in stacks of
# _STACK_ENTRIES // (samples * dim^2) trials (at least one), so an array of
# N-sample fields holds about _STACK_ENTRIES complex entries at any N and
# dim (8 trials at dim 3, 18 at dim 2, N = 128).  A trial's residuals do
# not depend on the other trials of its stack.
_STACK_ENTRIES = 9 * 1024


def _streams(trials):
    base = 32 * np.asarray(trials)
    return {name: base + k for k, name in enumerate(
        ("g1", "g2", "g3", "x1", "x2", "x3", "y1", "y2", "scalars"))}


def check_battery_input(samples, modes):
    """ValueError unless N is a power of two >= 16 and either modes = 0,
    or 1 <= modes <= N/8 with N >= MIN_SAMPLES_WITH_MODES."""
    _check_grid(samples)
    if not (modes == 0 or (samples >= MIN_SAMPLES_WITH_MODES
                           and 1 <= modes <= samples // 8)):
        raise ValueError(
            "verify admits modes = 0, or 1 <= modes <= N/8 with N >= %d "
            "(the spectral derivatives alias below); got N = %d, modes = %d"
            % (MIN_SAMPLES_WITH_MODES, samples, modes))


def check_battery_capacity(dim, samples, modes, trials):
    """CapacityError unless the battery's work fits MAX_BATTERY_WORK."""
    work = trials * samples * dim**2 * (modes + BATTERY_MODE_OFFSET)
    if work > MAX_BATTERY_WORK:
        raise CapacityError(
            "verify needs trials*samples*dim^2*(modes+%d) = %d work units, "
            "guard %d" % (BATTERY_MODE_OFFSET, work, MAX_BATTERY_WORK))


def check_period_capacity(grid_u, grid_phi, samples):
    """CapacityError unless the period fits MAX_PERIOD_WORK and one row
    fits MAX_PERIOD_ROW."""
    if grid_u * grid_phi * samples > MAX_PERIOD_WORK:
        raise CapacityError(
            "period needs grid_u*grid_phi*samples = %d work units, guard %d"
            % (grid_u * grid_phi * samples, MAX_PERIOD_WORK))
    if grid_phi * samples > MAX_PERIOD_ROW:
        raise CapacityError(
            "period rows need grid_phi*samples = %d, guard %d"
            % (grid_phi * samples, MAX_PERIOD_ROW))


def run_gamma_battery(dim=2, samples=128, modes=3, trials=100, seed=0,
                      alpha_sign=1.0):
    """The full invariant battery; returns one CheckResult per identity
    of the pair (alpha, R), period excluded, or [] at trials = 0.

    Trials are synthesized and checked in stacks; each check's residual
    is the worst over all trials.  ``alpha_sign`` scales d alpha in the
    delta R = d alpha row, the one row in which the sign of alpha shows:
    negating alpha negates every term of delta alpha, and so leaves its
    absolute value as it is."""
    if dim < 2:
        raise ValueError("dim must be >= 2 (su(1) is zero), got %d" % dim)
    if trials < 0:
        raise ValueError("trials must be >= 0, got %d" % trials)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be in 0..2^64-1, got %d" % seed)
    check_battery_input(samples, modes)
    check_battery_capacity(dim, samples, modes, trials)
    if not trials:
        return []
    worst = {name: 0.0 for name in TOLERANCES}
    chunk = max(1, _STACK_ENTRIES // (samples * dim**2))
    for first in range(0, trials, chunk):
        residuals = _stack_residuals(
            dim, samples, modes, seed, alpha_sign,
            _streams(np.arange(first, min(first + chunk, trials))))
        for name, values in residuals.items():
            worst[name] = max(worst[name], float(np.max(values)))

    return [CheckResult(name=name, residual=worst[name], tolerance=tolerance,
                        passed=worst[name] <= tolerance, trials=trials)
            for name, tolerance in sorted(TOLERANCES.items())]


def _stack_residuals(dim, samples, modes, seed, alpha_sign, s):
    """Every residual of one stack of trials, keyed like TOLERANCES.  x1,
    y1 and g2 are drawn at 2N only: theta_grid(2N)[2j] == theta_grid(N)[j]
    exactly, so their N-sample data are the even samples, and
    resolution_doubling compares R(x1, y1) and alpha(g2, x1) across N, 2N."""
    def synthesize(make, num_samples, *names):
        # one call for the named streams, split into views per name
        field = make(seed, dim, num_samples, modes,
                     stream=np.stack([s[k] for k in names]))
        return [type(field)._trusted(f) for f in field.samples]

    x1, y1 = synthesize(random_smooth_tangent, 2 * samples, "x1", "y1")
    (g2,) = synthesize(random_smooth_loop, 2 * samples, "g2")
    fine_R, fine_alpha = eval_R(x1, y1), eval_alpha(g2, x1)
    x1, y1, g2 = (type(f)._trusted(f.samples[..., ::2, :, :])
                  for f in (x1, y1, g2))
    g1, g3 = synthesize(random_smooth_loop, samples, "g1", "g3")
    x2, x3, y2 = synthesize(random_smooth_tangent, samples, "x2", "x3", "y2")
    a, b = stream_draws(seed, 2**20 + s["scalars"], "uniform", -1.5, 1.5,
                        2).T

    residuals = {
        # the checks with the largest temporaries, and the two that share
        # k g1, before the derivative and product caches fill
        "pushforward_merge": pushforward_fd_residual(g1, g2, x1, x2),
        "left_invariance_fd": left_invariance_fd_residual(g3, g1, g2, x1),
        "left_invariance": left_invariance_check(g3, g1, g2, x1, y1),
    }
    dr = delta_form_R((g1, g2), (x1, x2), (y1, y2))
    da = alpha_sign * d_alpha_numeric((g1, g2), (x1, x2), (y1, y2))
    r_xy, alpha_x = eval_R(x1, y1), eval_alpha(g2, x1)
    residuals.update({
        "delta_R_vs_d_alpha": abs(dr - da) / (1.0 + abs(dr)),
        "delta_alpha": abs(delta_form_alpha((g1, g2, g3), (x1, x2, x3))),
        "antisymmetry": abs(r_xy + eval_R(y1, x1)),
        "bilinearity": np.maximum.reduce([
            abs(eval_R(a * x1 + b * x2, y1)
                - a * r_xy - b * eval_R(x2, y1)),
            abs(eval_R(x1, a * y1 + b * x3)
                - a * r_xy - b * eval_R(x1, x3)),
            abs(eval_alpha(g2, a * x1 + b * x2)
                - a * alpha_x - b * eval_alpha(g2, x2)),
        ]),
        "closedness": abs(d_R_numeric(x1, x2, x3)),
        "resolution_doubling": np.maximum(abs(r_xy - fine_R),
                                          abs(alpha_x - fine_alpha)),
    })
    return residuals


def pushforward_fd_residual(g1, g2, x1, x2):
    """Merge-face tangent formula vs direct differentiation of the
    product curve P(t) = g1 exp(tX1) g2 exp(tX2) by the fourth-order
    stencil (8(P(h) - P(-h)) - (P(2h) - P(-2h))) / 12h with
    h = PUSHFORWARD_STEP; the worst sample of each stack entry.  P(-t)
    takes exp(-tX) = exp(tX)^*: one exponential per tangent and step."""
    h = PUSHFORWARD_STEP
    (base,), (tan,) = face_pushforward(1, (g1, g2), (x1, x2))

    def difference(t):
        # P(t) - P(-t), each product associated as (g1 E1)(g2 E2)
        e1, e2 = (exp_stack(t * x.samples) for x in (x1, x2))
        return (_matmul(_matmul(g1.samples, e1), _matmul(g2.samples, e2))
                - _matmul(_matmul(g1.samples, _dagger(e1)),
                          _matmul(g2.samples, _dagger(e2))))

    slope = (8.0 * difference(h) - difference(2.0 * h)) / (12.0 * h)
    fd = project_algebra(_matmul(_dagger(base.samples), slope))
    return _as_result(np.abs(fd - tan.samples).max(axis=(-3, -2, -1)))


def run_period_checks(grid=(64, 64), samples=128, degenerate=False):
    """Period of R over the generator family at the given and the doubled
    grid resolutions; integrality asks the raw period to sit within
    PERIOD_TOLERANCE of one nonzero integer at both (within
    DEGENERATE_PERIOD_TOLERANCE of zero for the degenerate family).

    Returns (results, [integrality, gram row]).  The second check compares,
    at both grids, the equator row of the Gram-matrix quadrature with the
    same row summed by full eval_R (periods.equator_rows); its residual is
    |gram - full| / (1 + |full|)."""
    families = [SphereFamily(grid_u=grid[0] * factor,
                             grid_phi=grid[1] * factor,
                             num_samples=samples,
                             degenerate=degenerate)
                for factor in (1, 2)]
    check_period_capacity(grid[0], grid[1], samples)
    results = []
    gram_residual = 0.0
    for family in families:
        period = sphere_period(family)
        nearest = int(round(period))
        results.append({
            "grid_u": family.grid_u,
            "grid_phi": family.grid_phi,
            "period": period,
            "nearest_integer": nearest,
            "deviation": abs(period - nearest),
        })
        gram, full = equator_rows(family)
        gram_residual = max(gram_residual,
                            abs(gram - full) / (1.0 + abs(full)))
    if degenerate:
        passed = all(abs(r["period"]) <= DEGENERATE_PERIOD_TOLERANCE
                     for r in results)
        residual = max(abs(r["period"]) for r in results)
        tolerance = DEGENERATE_PERIOD_TOLERANCE
    else:
        tolerance = PERIOD_TOLERANCE
        same = results[0]["nearest_integer"] == results[1]["nearest_integer"]
        nonzero = results[0]["nearest_integer"] != 0
        residual = max(r["deviation"] for r in results)
        passed = bool(same and nonzero and residual <= tolerance)
    checks = [
        CheckResult(name="period_integrality", residual=float(residual),
                    tolerance=tolerance, passed=passed, trials=2),
        CheckResult(name="period_gram_row", residual=gram_residual,
                    tolerance=GRAM_ROW_TOLERANCE,
                    passed=gram_residual <= GRAM_ROW_TOLERANCE, trials=2),
    ]
    return results, checks
