import numpy as np
import pytest

from centrex import forms, periods, verify
from centrex.forms import eval_R
from centrex.loops import LoopTangent, theta_grid
from centrex.periods import SphereFamily, sphere_period
from centrex.rng import generator
from centrex.su import (_dagger, assert_algebra, killing_form_samples,
                        project_algebra)
from centrex.verify import run_period_checks


def test_family_loops_are_valid_and_based():
    fam = SphereFamily(8, 8, 32)
    for (i, j) in ((0, 0), (3, 5), (8, 0)):
        u, phi = fam.node(i, j)
        loop = fam.loop_at(u, phi)
        assert np.abs(loop.samples[0] - np.eye(2)).max() <= 1e-15


def test_poles_independent_of_phi():
    fam = SphereFamily(8, 8, 32)
    north = [fam.loop_at(*fam.node(0, j)).samples for j in range(8)]
    for s in north[1:]:
        assert np.abs(s - north[0]).max() <= 1e-15


def fd_tangents_at(fam, u, phi, h=1e-6):
    """Central-difference alternative to the analytic tangents."""
    g0_inv = _dagger(fam.loop_at(u, phi).samples)
    out = []
    for du, dphi in ((h, 0.0), (0.0, h * fam.orientation)):
        gp = fam.loop_at(u + du, phi + dphi)
        gm = fam.loop_at(u - du, phi - dphi)
        diff = (gp.samples - gm.samples) / (2.0 * h)
        out.append(LoopTangent._trusted(project_algebra(g0_inv @ diff)))
    return out[0], out[1]


def test_analytic_tangents_match_finite_differences():
    fam = SphereFamily(8, 8, 64)
    for (i, j) in ((2, 1), (4, 3), (6, 7)):
        u, phi = fam.node(i, j)
        xu, xphi = fam.tangents_at(u, phi)
        assert_algebra(xu.samples)
        fu, fphi = fd_tangents_at(fam, u, phi)
        assert np.abs(xu.samples - fu.samples).max() <= 1e-9
        assert np.abs(xphi.samples - fphi.samples).max() <= 1e-9


def test_period_converges_to_minus_two():
    coarse = sphere_period(SphereFamily(16, 16, 64))
    fine = sphere_period(SphereFamily(32, 32, 64))
    assert coarse == pytest.approx(-2.0, abs=1e-3)
    assert fine == pytest.approx(-2.0, abs=1e-4)
    assert abs(fine + 2.0) < abs(coarse + 2.0)


def test_orientation_reversal_negates_period():
    p = sphere_period(SphereFamily(16, 16, 64))
    q = sphere_period(SphereFamily(16, 16, 64, orientation=-1))
    assert q == pytest.approx(-p, abs=1e-12)


def _per_node_period(family):
    # the quadrature one node at a time: scalar tangents_at and eval_R
    w_u = np.ones(family.grid_u + 1)
    w_u[1:-1:2], w_u[2:-1:2] = 4.0, 2.0
    w_u *= np.pi / family.grid_u / 3.0
    total = 0.0
    for i in range(family.grid_u + 1):
        row = 0.0
        for j in range(family.grid_phi):
            row += eval_R(*family.tangents_at(*family.node(i, j)))
        total += w_u[i] * row * 2.0 * np.pi / family.grid_phi
    return total


@pytest.mark.parametrize("orientation", [1, -1])
def test_row_stacked_period_matches_per_node_reference(orientation):
    fam = SphereFamily(16, 16, 64, orientation=orientation)
    assert abs(sphere_period(fam) - _per_node_period(fam)) <= 1e-13


def _per_row_gram_period(family):
    # the Gram quadrature one u-row at a time, blocks at scalar u
    gram = periods.profile_gram(family.num_samples)
    w_u = periods._simpson_weights(family.grid_u) * np.pi / family.grid_u
    total = 0.0
    for i in range(family.grid_u + 1):
        a, b = family.coefficient_blocks(
            *family.node(i, np.arange(family.grid_phi)))
        pairs = killing_form_samples(a[:, :, None], b[:, None, :])
        row = (pairs * gram).sum(axis=(-2, -1)).sum()
        total += w_u[i] * row * 2.0 * np.pi / family.grid_phi
    return total


@pytest.mark.parametrize("orientation", [1, -1])
def test_coefficient_vectors_pair_like_their_blocks(orientation):
    # <i v . sigma, i w . sigma> = 2 v . w: the quadrature's pairing of the
    # vectors has the bits of the Killing form of their blocks, and both
    # are within 1e-15 of 2 |v| |w| of 2 v . w, at seeded nodes
    fam = SphereFamily(8, 8, 16, orientation=orientation)
    rng = generator(47, orientation % 3)
    u, phi = rng.uniform(0.0, np.pi, 400), rng.uniform(0.0, 2 * np.pi, 400)
    blocks = fam.coefficient_blocks(u, phi)
    vectors = fam.coefficient_vectors(u, phi)
    for (a, b), (v, w) in zip([blocks, blocks[::-1], blocks[:1] * 2],
                              [vectors, vectors[::-1], vectors[:1] * 2]):
        killing = killing_form_samples(a[:, :, None], b[:, None, :])
        assert np.array_equal(periods._vector_pairs(v, w), killing)
        dots = 2.0 * np.einsum("jai,jbi->jab", v, w)
        scale = 2.0 * np.linalg.norm(v, axis=-1)[:, :, None] \
            * np.linalg.norm(w, axis=-1)[:, None, :]
        assert (scale > 0.0).all()
        assert (np.abs(killing - dots) <= 1e-15 * scale).all()


@pytest.mark.parametrize("orientation", [1, -1])
def test_row_stacks_that_do_not_divide_the_grid(orientation):
    # 96 phi nodes: stacks of 10 u-rows, so the 65 rows end in a stack of 5
    fam = SphereFamily(64, 96, 16, orientation=orientation)
    assert (fam.grid_u + 1) % (periods._STACK_NODES // fam.grid_phi) != 0
    period = sphere_period(fam)
    assert period == _per_row_gram_period(fam)
    if orientation == 1:
        assert abs(period - _per_node_period(fam)) <= 1e-13


@pytest.mark.parametrize("degenerate", [False, True])
def test_vector_phi_tangents_match_scalar_calls(degenerate):
    fam = SphereFamily(8, 8, 32, orientation=-1, degenerate=degenerate)
    u, phi = fam.node(3, np.arange(8))
    stacked = fam.tangents_at(u, phi)
    for j in range(8):
        single = fam.tangents_at(*fam.node(3, j))
        for a, b in zip(stacked, single):
            assert a.samples.shape == (8, 32, 2, 2)
            assert b.samples.shape == (32, 2, 2)
            assert np.abs(a.samples[j] - b.samples).max() <= 1e-16


def test_degenerate_family_period_zero():
    assert sphere_period(SphereFamily(8, 8, 32, degenerate=True)) == 0.0


def test_grid_validation():
    with pytest.raises(ValueError, match="even"):
        SphereFamily(7, 8, 32)
    with pytest.raises(ValueError, match="grid_phi"):
        SphereFamily(8, 2, 32)
    with pytest.raises(ValueError, match="orientation"):
        SphereFamily(8, 8, 32, orientation=2)


def test_integrand_is_phi_independent():
    # rotational symmetry of the family: R(X_u, X_phi) depends on u only
    fam = SphereFamily(8, 8, 64)
    values = []
    for j in range(8):
        u, phi = fam.node(3, j)
        values.append(eval_R(*fam.tangents_at(u, phi)))
    assert np.ptp(values) <= 1e-14


def test_run_period_check_pass_and_degenerate():
    results, (check, _) = run_period_checks(grid=(16, 16), samples=64)
    assert check.passed
    assert results[0]["nearest_integer"] == results[1]["nearest_integer"] == -2
    assert results[1]["grid_u"] == 32
    _, (degenerate, _) = run_period_checks(grid=(8, 8), samples=32,
                                           degenerate=True)
    assert degenerate.passed


def _count_calls(monkeypatch):
    """Count SphereFamily.tangents_at and eval_R calls (every binding)."""
    calls = {"tangents_at": 0, "eval_R": 0}
    tangents_at = SphereFamily.tangents_at

    def counted_tangents(self, u, phi):
        calls["tangents_at"] += 1
        return tangents_at(self, u, phi)

    def counted_eval_R(x, y):
        calls["eval_R"] += 1
        return eval_R(x, y)

    monkeypatch.setattr(SphereFamily, "tangents_at", counted_tangents)
    for module in (forms, periods, verify):
        monkeypatch.setattr(module, "eval_R", counted_eval_R)
    return calls


def test_period_samples_one_tangent_row_per_grid(monkeypatch):
    # the Gram quadrature samples no tangent; the cross-check row takes
    # one tangents_at and one eval_R call at each of the two grids
    calls = _count_calls(monkeypatch)
    results, (check, _) = run_period_checks(grid=(64, 64))
    assert check.passed and results[0]["nearest_integer"] == -2
    assert calls["tangents_at"] <= 2 and calls["eval_R"] <= 2


def test_gram_row_check_passes_at_both_grids():
    _, checks = run_period_checks(grid=(16, 16), samples=64)
    assert [c.name for c in checks] == ["period_integrality",
                                        "period_gram_row"]
    assert all(c.passed for c in checks)
    assert checks[1].residual <= 1e-12
    # the reversed family, at the same two grids
    for grid in (16, 32):
        family = SphereFamily(grid, grid, 64, orientation=-1)
        assert sphere_period(family) == pytest.approx(2.0, abs=1e-3)
        gram, full = periods.equator_rows(family)
        assert abs(gram - full) <= 1e-12 * (1.0 + abs(full))


def test_gram_row_check_catches_a_transposed_gram(monkeypatch):
    # G is antisymmetric, so G^T negates every node: the period becomes +2,
    # still an integer, and only the full-eval_R row disagrees
    gram = periods.profile_gram
    monkeypatch.setattr(periods, "profile_gram", lambda n: gram(n).T)
    results, (integrality, gram_row) = run_period_checks(grid=(16, 16),
                                                         samples=64)
    assert results[0]["nearest_integer"] == 2 and integrality.passed
    assert not gram_row.passed and gram_row.residual > 0.1


@pytest.mark.parametrize("winding", [1, 2, 3])
def test_winding_family_period_is_minus_two_k(monkeypatch, winding):
    # theta -> k theta wraps every loop k times: the period is -2k, and the
    # Gram path must see the k in the profile derivative like eval_R does
    monkeypatch.setattr(periods, "theta_grid",
                        lambda n: winding * theta_grid(n))
    family = SphereFamily(32, 32, 64)
    assert sphere_period(family) == pytest.approx(-2.0 * winding, abs=1e-5)
    gram, full = periods.equator_rows(family)
    assert abs(gram - full) <= 1e-12 * (1.0 + abs(full))
