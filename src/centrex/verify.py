"""Seeded trial batteries that certify the loop-form identities.

Each check aggregates the worst residual over the trial count and
compares it against a fixed tolerance derived from the discretization
error models (spectral in theta, O(h^2) central differences in the
chart parameters).  Every report row carries both the residual and the
tolerance it was judged against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forms import (d_R_numeric, d_alpha_numeric, delta_form_R,
                    delta_form_alpha, eval_R, eval_alpha, face_pushforward,
                    left_invariance_check, left_invariance_fd_residual)
from .loops import (displace, random_smooth_loop, random_smooth_tangent)
from .periods import SphereFamily, sphere_period
from .rng import generator
from .su import project_algebra

DEFAULT_TOLERANCES = {
    "antisymmetry": 1e-11,
    "bilinearity": 1e-12,
    "delta_alpha": 1e-9,
    "delta_R_vs_d_alpha": 5e-5,      # relative: |deltaR - dalpha| / (1 + |deltaR|)
    "closedness": 1e-5,
    "pushforward_merge": 1e-7,       # FD cross-check step fixed at 1e-4
    "resolution_doubling": 1e-10,
    "left_invariance": 0.0,
    "left_invariance_fd": 1e-9,
}

PUSHFORWARD_STEP = 1e-4
PERIOD_TOLERANCE = 1e-3
DEGENERATE_PERIOD_TOLERANCE = 1e-9


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


def _streams(trial):
    base = 32 * trial
    return {name: base + k for k, name in enumerate(
        ("g1", "g2", "g3", "x1", "x2", "x3", "y1", "y2", "scalars"))}


def run_gamma_battery(dim=2, samples=128, modes=3, trials=100, seed=0,
                      step=1e-3, alpha_sign=1.0, tolerances=None):
    """The full invariant battery; returns a GammaReport (period excluded)."""
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    worst = {name: 0.0 for name in tol}
    for t in range(trials):
        s = _streams(t)
        g1 = random_smooth_loop(seed, dim, samples, modes, stream=s["g1"])
        g2 = random_smooth_loop(seed, dim, samples, modes, stream=s["g2"])
        g3 = random_smooth_loop(seed, dim, samples, modes, stream=s["g3"])
        x1 = random_smooth_tangent(seed, dim, samples, modes, stream=s["x1"])
        x2 = random_smooth_tangent(seed, dim, samples, modes, stream=s["x2"])
        x3 = random_smooth_tangent(seed, dim, samples, modes, stream=s["x3"])
        y1 = random_smooth_tangent(seed, dim, samples, modes, stream=s["y1"])
        y2 = random_smooth_tangent(seed, dim, samples, modes, stream=s["y2"])
        rng = generator(seed, 2**20 + s["scalars"])
        a, b = (float(v) for v in rng.uniform(-1.5, 1.5, size=2))

        worst["antisymmetry"] = max(worst["antisymmetry"],
                                    abs(eval_R(x1, y1) + eval_R(y1, x1)))

        lin = max(
            abs(eval_R(a * x1 + b * x2, y1)
                - a * eval_R(x1, y1) - b * eval_R(x2, y1)),
            abs(eval_R(x1, a * y1 + b * x3)
                - a * eval_R(x1, y1) - b * eval_R(x1, x3)),
            abs(eval_alpha(g2, a * x1 + b * x2)
                - a * eval_alpha(g2, x1) - b * eval_alpha(g2, x2)),
        )
        worst["bilinearity"] = max(worst["bilinearity"], lin)

        worst["delta_alpha"] = max(
            worst["delta_alpha"],
            abs(delta_form_alpha((g1, g2, g3), (x1, x2, x3),
                                 alpha_sign=alpha_sign)))

        dr = delta_form_R((g1, g2), (x1, x2), (y1, y2))
        da = d_alpha_numeric((g1, g2), (x1, x2), (y1, y2), h=step,
                             alpha_sign=alpha_sign)
        worst["delta_R_vs_d_alpha"] = max(worst["delta_R_vs_d_alpha"],
                                          abs(dr - da) / (1.0 + abs(dr)))

        worst["closedness"] = max(worst["closedness"],
                                  abs(d_R_numeric(g1, x1, x2, x3, h=step)))

        worst["pushforward_merge"] = max(
            worst["pushforward_merge"],
            pushforward_fd_residual(g1, g2, x1, x2, h=PUSHFORWARD_STEP))

        worst["resolution_doubling"] = max(
            worst["resolution_doubling"],
            doubling_residual(seed, dim, samples, modes, s))

        worst["left_invariance"] = max(
            worst["left_invariance"],
            left_invariance_check(g3, g1, g2, x1))

        worst["left_invariance_fd"] = max(
            worst["left_invariance_fd"],
            left_invariance_fd_residual(g3, g1, g2, x1))

    checks = []
    for name in sorted(tol):
        residual = worst[name] if trials else None
        checks.append(CheckResult(
            name=name,
            residual=residual,
            tolerance=tol[name],
            passed=(residual is None or residual <= tol[name]),
            trials=trials,
        ))
    return GammaReport(checks=checks)


def pushforward_fd_residual(g1, g2, x1, x2, h=PUSHFORWARD_STEP):
    """Merge-face tangent formula vs direct differentiation of the
    product curve t -> g1 exp(tX1) g2 exp(tX2)."""
    (_,), (tan,) = face_pushforward(1, (g1, g2), (x1, x2))
    plus = displace(g1, x1, h).multiply(displace(g2, x2, h))
    minus = displace(g1, x1, -h).multiply(displace(g2, x2, -h))
    base = g1.multiply(g2)
    fd = project_algebra(
        np.conjugate(np.swapaxes(base.samples, 1, 2))
        @ (plus.samples - minus.samples) / (2.0 * h))
    return float(np.abs(fd - tan.samples).max())


def doubling_residual(seed, dim, samples, modes, streams):
    """R and alpha evaluated on the same smooth data at N and 2N."""
    fine = 2 * samples
    x_n = random_smooth_tangent(seed, dim, samples, modes, stream=streams["x1"])
    y_n = random_smooth_tangent(seed, dim, samples, modes, stream=streams["y1"])
    x_f = random_smooth_tangent(seed, dim, fine, modes, stream=streams["x1"])
    y_f = random_smooth_tangent(seed, dim, fine, modes, stream=streams["y1"])
    g_n = random_smooth_loop(seed, dim, samples, modes, stream=streams["g2"])
    g_f = random_smooth_loop(seed, dim, fine, modes, stream=streams["g2"])
    return max(abs(eval_R(x_n, y_n) - eval_R(x_f, y_f)),
               abs(eval_alpha(g_n, x_n) - eval_alpha(g_f, x_f)))


def full_gamma_report(dim=2, samples=128, modes=3, trials=100, seed=0,
                      step=1e-3, grid=(32, 32)):
    """Battery plus period in one report; the period slot only makes
    sense for dim = 2, where the generator family lives."""
    report = run_gamma_battery(dim=dim, samples=samples, modes=modes,
                               trials=trials, seed=seed, step=step)
    if dim == 2:
        _, check = run_period_check(grid=grid, samples=samples)
        report.checks.append(check)
    return report


def run_period_check(grid=(64, 64), samples=128, degenerate=False,
                     orientation=1, tolerance=PERIOD_TOLERANCE):
    """Period of R over the generator family at the given and the doubled
    grid resolutions; integrality asks the raw period to sit within
    tolerance of one nonzero integer at both."""
    results = []
    for factor in (1, 2):
        family = SphereFamily(grid_u=grid[0] * factor,
                              grid_phi=grid[1] * factor,
                              num_samples=samples,
                              orientation=orientation,
                              degenerate=degenerate)
        period = sphere_period(family)
        nearest = int(round(period))
        results.append({
            "grid_u": family.grid_u,
            "grid_phi": family.grid_phi,
            "period": period,
            "nearest_integer": nearest,
            "deviation": abs(period - nearest),
        })
    if degenerate:
        passed = all(abs(r["period"]) <= DEGENERATE_PERIOD_TOLERANCE
                     for r in results)
        residual = max(abs(r["period"]) for r in results)
        tolerance = DEGENERATE_PERIOD_TOLERANCE
    else:
        same = results[0]["nearest_integer"] == results[1]["nearest_integer"]
        nonzero = results[0]["nearest_integer"] != 0
        residual = max(r["deviation"] for r in results)
        passed = bool(same and nonzero and residual <= tolerance)
    check = CheckResult(name="period_integrality", residual=float(residual),
                        tolerance=tolerance, passed=passed, trials=2)
    return results, check
