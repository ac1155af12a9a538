"""Seeded trial batteries that certify the loop-form identities.

Each check aggregates the worst residual over the trial count and
compares it against a fixed tolerance derived from the discretization
error models (spectral in theta, round-off for the closed-form exterior
derivatives and left invariance, O(h^4) for the pushforward cross-check,
O(h^2) for the chart-level left-invariance cross-check).  Every report
row carries both the residual and the tolerance it was judged against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError
from .forms import (d_R_numeric, d_alpha_numeric, delta_form_R,
                    delta_form_alpha, eval_R, eval_alpha, face_pushforward,
                    left_invariance_check, left_invariance_fd_residual)
from .loops import (_as_result, _check_grid, displace, random_smooth_loop,
                    random_smooth_tangent)
from .periods import SphereFamily, equator_rows, sphere_period
from .rng import generator
from .su import _dagger, _matmul, project_algebra

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
# inputs and of the three at 2N, the exponentials of the pushforward
# stencil and of the left-invariance chart); it over-counts that work at
# small modes, so the guard is conservative: its corners take 5 to 28 s
# (README).  The period costs grid_u * grid_phi coefficient-block
# pairings per grid (the doubled grid has four times as many),
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
    residual: float | None
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


@dataclass
class GammaReport:
    """Residuals and verdicts for the membership identities of the pair
    (alpha, R): closed integral R, delta R = d alpha, delta alpha = 0,
    antisymmetry/bilinearity, left invariance."""

    checks: list = field(default_factory=list)

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)


# Trials are synthesized and checked in stacks of _CHUNK_SAMPLES // samples
# (at least one), so a stack holds about _CHUNK_SAMPLES sample matrices
# per array at any N.  A trial's residuals do not depend on the other
# trials of its stack.
_CHUNK_SAMPLES = 1024


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
    """The full invariant battery; returns a GammaReport (period excluded).

    Trials are synthesized and checked in stacks; each check's residual
    is the worst over all trials."""
    if dim < 2:
        raise ValueError("dim must be >= 2 (su(1) is zero), got %d" % dim)
    if trials < 0:
        raise ValueError("trials must be >= 0, got %d" % trials)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be in 0..2^64-1, got %d" % seed)
    check_battery_input(samples, modes)
    check_battery_capacity(dim, samples, modes, trials)
    worst = {name: 0.0 for name in TOLERANCES}
    chunk = max(1, _CHUNK_SAMPLES // samples)
    for first in range(0, trials, chunk):
        s = _streams(np.arange(first, min(first + chunk, trials)))
        g1, g2, g3 = (random_smooth_loop(seed, dim, samples, modes,
                                         stream=s[k])
                      for k in ("g1", "g2", "g3"))
        x1, x2, x3, y1, y2 = (random_smooth_tangent(seed, dim, samples, modes,
                                                    stream=s[k])
                              for k in ("x1", "x2", "x3", "y1", "y2"))
        a, b = np.array([generator(seed, 2**20 + int(st)).uniform(
            -1.5, 1.5, size=2) for st in s["scalars"]]).T

        residuals = {
            "antisymmetry": abs(eval_R(x1, y1) + eval_R(y1, x1)),
            "bilinearity": np.maximum.reduce([
                abs(eval_R(a * x1 + b * x2, y1)
                    - a * eval_R(x1, y1) - b * eval_R(x2, y1)),
                abs(eval_R(x1, a * y1 + b * x3)
                    - a * eval_R(x1, y1) - b * eval_R(x1, x3)),
                abs(eval_alpha(g2, a * x1 + b * x2)
                    - a * eval_alpha(g2, x1) - b * eval_alpha(g2, x2)),
            ]),
            "delta_alpha": abs(delta_form_alpha((g1, g2, g3), (x1, x2, x3),
                                                alpha_sign=alpha_sign)),
            "closedness": abs(d_R_numeric(x1, x2, x3)),
            "pushforward_merge": pushforward_fd_residual(
                g1, g2, x1, x2, h=PUSHFORWARD_STEP),
            "resolution_doubling": doubling_residual(
                x1, y1, g2, seed, modes, s),
            "left_invariance": left_invariance_check(g3, g1, g2, x1, y1),
            "left_invariance_fd": left_invariance_fd_residual(g3, g1, g2, x1),
        }
        dr = delta_form_R((g1, g2), (x1, x2), (y1, y2))
        da = d_alpha_numeric((g1, g2), (x1, x2), (y1, y2),
                             alpha_sign=alpha_sign)
        residuals["delta_R_vs_d_alpha"] = abs(dr - da) / (1.0 + abs(dr))
        for name, values in residuals.items():
            worst[name] = max(worst[name], float(np.max(values)))

    checks = []
    for name, tolerance in sorted(TOLERANCES.items()):
        residual = worst[name] if trials else None
        checks.append(CheckResult(
            name=name,
            residual=residual,
            tolerance=tolerance,
            passed=(residual is None or residual <= tolerance),
            trials=trials,
        ))
    return GammaReport(checks=checks)


def pushforward_fd_residual(g1, g2, x1, x2, h=PUSHFORWARD_STEP):
    """Merge-face tangent formula vs direct differentiation of the
    product curve P(t) = g1 exp(tX1) g2 exp(tX2) by the fourth-order
    stencil (8(P(h) - P(-h)) - (P(2h) - P(-2h))) / 12h; the worst sample
    of each stack entry."""
    (_,), (tan,) = face_pushforward(1, (g1, g2), (x1, x2))

    def product(t):
        return displace(g1, x1, t).multiply(displace(g2, x2, t)).samples

    slope = (8.0 * (product(h) - product(-h))
             - (product(2.0 * h) - product(-2.0 * h))) / (12.0 * h)
    base = g1.multiply(g2)
    fd = project_algebra(_matmul(_dagger(base.samples), slope))
    return _as_result(np.abs(fd - tan.samples).max(axis=(-3, -2, -1)))


def doubling_residual(x, y, g, seed, modes, streams):
    """R and alpha on the N-sample data (x, y, g) against the same smooth
    data synthesized at 2N from the streams of x1, y1 and g2."""
    fine = 2 * x.num_samples
    x_f, y_f = (random_smooth_tangent(seed, x.dim, fine, modes,
                                      stream=streams[k]) for k in ("x1", "y1"))
    g_f = random_smooth_loop(seed, x.dim, fine, modes, stream=streams["g2"])
    return _as_result(np.maximum(abs(eval_R(x, y) - eval_R(x_f, y_f)),
                                 abs(eval_alpha(g, x) - eval_alpha(g_f, x_f))))


def run_period_checks(grid=(64, 64), samples=128, degenerate=False,
                      orientation=1):
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
                             orientation=orientation,
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
