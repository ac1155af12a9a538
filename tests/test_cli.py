import argparse
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrex import cli, cochains, cohomology, extensions, verify
from centrex.cli import _full_delta_zero, main
from centrex.cochains import Cochain, parse_cochain
from centrex.errors import CapacityError
from centrex.groups import (cyclic, dihedral, direct_product, generating_set,
                            klein_four, parse_group_table, symmetric3)
from centrex.report import report_json

from group_helpers import format_cochain, format_group_table


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, group in (("z2", cyclic(2)), ("z3", cyclic(3)),
                        ("v4", klein_four()), ("d8", dihedral(8))):
        p = tmp_path / ("%s.grp" % name)
        p.write_text(format_group_table(group))
        paths[name] = str(p)
    z4 = tmp_path / "z4.coc"
    z4.write_text(format_cochain(Cochain(cyclic(2), 2, 2, [0, 0, 0, 1])))
    paths["z4coc"] = str(z4)
    bad = tmp_path / "bad.coc"
    bad.write_text("2 2\n0 1\n0 1\n")
    paths["badcoc"] = str(bad)
    return paths


def test_h2_z2_report(files, tmp_path, capsys):
    out = tmp_path / "h2.json"
    assert main(["h2", "--group", files["z2"], "--modulus", "2",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_passed"]
    payload = report["payload"]
    assert (payload["z2_size"], payload["b2_size"], payload["h2_size"]) \
        == (4, 2, 2)
    orders = sorted(tuple(c["fingerprint"]["element_orders"])
                    for c in payload["classes"])
    assert orders == [(1, 2, 2, 2), (1, 2, 4, 4)]  # Z2xZ2 and Z4
    assert payload["oracle"]["feasible"]
    names = [c["name"] for c in report["checks"]]
    assert "oracle_agreement" in names
    assert "wall-clock" in capsys.readouterr().out


def test_h2_v4_fingerprints(files, tmp_path):
    out = tmp_path / "v4.json"
    assert main(["h2", "--group", files["v4"], "--modulus", "2",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    orders = [tuple(c["fingerprint"]["element_orders"])
              for c in payload["classes"]]
    q8 = (1, 2, 4, 4, 4, 4, 4, 4)
    d4 = (1, 2, 2, 2, 2, 2, 4, 4)
    assert orders.count(q8) == 1
    assert orders.count(d4) >= 1


def test_h2_builds_each_space_once(files, monkeypatch):
    # Z^2, B^2 and the quotient lattice: one distinct Smith normal form each
    inputs = []
    real = cohomology.smith_normal_form

    def counting(A, n):
        a = np.asarray(A)
        inputs.append((a.shape, tuple(a.ravel().tolist())))
        return real(A, n)

    monkeypatch.setattr(cohomology, "smith_normal_form", counting)
    for name, n in (("v4", "2"), ("z3", "3"), ("z3", "1")):
        inputs.clear()
        assert main(["h2", "--group", files[name], "--modulus", n]) == 0
        assert len(inputs) == 3 and len(set(inputs)) == 3


def _recording_snf(monkeypatch):
    """Record (input shape, result) of every Smith normal form."""
    calls = []
    real = cohomology.smith_normal_form

    def recording(A, n):
        res = real(A, n)
        calls.append((np.asarray(A).shape, res))
        return res

    monkeypatch.setattr(cohomology, "smith_normal_form", recording)
    return calls


def test_h2_z2_matrix_has_generator_rows_only(files, monkeypatch):
    # Z^2 is the kernel of the delta^2 rows (g, h, s) with s in a generating
    # set, composed with the lift L: (m - 1) |S| + 1 columns and at most
    # m^2 |S| rows, not m^2 columns and m^3 rows
    calls = _recording_snf(monkeypatch)
    assert main(["h2", "--group", files["d8"], "--modulus", "2"]) == 0
    m = dihedral(8).order
    s = len(generating_set(dihedral(8).table))
    k = (m - 1) * s + 1
    assert k < m * m
    # in order: Z^2, Hom(G, Z/n) as constraints on the f(s), s in S, and
    # the quotient on [W / scale | diag(orders)]^T over the z coordinates
    # of order above 1
    (z2, res2), (hom, _), (quotient, _) = calls
    assert z2[1] == k and 0 < z2[0] <= m * m * s
    assert hom[1] == s and hom[0] <= m * s
    z = sum(o > 1 for o in cohomology._cyclic_orders(res2, k, 2))
    assert 0 < z < k
    assert quotient == (m + z, z)


def test_h2_pivot_budget(files, monkeypatch):
    # the three Smith normal forms of D8 at n = 2 take 28 pivots together;
    # in the m (|S| + 1) coordinates with B^2 from delta^1 they took 90
    calls = _recording_snf(monkeypatch)
    assert main(["h2", "--group", files["d8"], "--modulus", "2"]) == 0
    assert len(calls) == 3
    assert sum(len(res.diag) for _, res in calls) <= 30


@pytest.mark.parametrize("group", [cyclic(1), cyclic(2), cyclic(5)],
                         ids=["Z1", "Z2", "Z5"])
@pytest.mark.parametrize("n", [1, 2, 6, 8])
def test_h2_with_at_most_one_generator(group, n, tmp_path):
    # |S| = 0 on the trivial group and |S| = 1 on a cyclic one: the
    # coordinates are c(e, e) alone, or c(e, e) and c(g, s) for g != e
    table, out = tmp_path / "g.grp", tmp_path / "h2.json"
    table.write_text(format_group_table(group))
    assert main(["h2", "--group", str(table), "--modulus", str(n),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    # H^2(Z/p; Z/n) = Z/gcd(p, n) and |Hom(Z/p, Z/n)| = gcd(p, n), so
    # |B^2| = n^m / gcd(p, n) and |Z^2| = |B^2| |H^2| = n^m
    m = group.order
    h2 = np.gcd(m, n)
    assert (payload["z2_size"], payload["b2_size"], payload["h2_size"]) \
        == (n ** m, n ** m // h2, h2)


def _drop_last_generator_rows(monkeypatch):
    """Leave the rows of the last generator out of M; the lift and its
    tree still use every generator, so every column is still reached."""
    real = cohomology._light_rows
    monkeypatch.setattr(cohomology, "_light_rows",
                        lambda table, L, gens, n: real(table, L, gens[:-1], n))


def test_h2_full_delta_certificate(tmp_path, monkeypatch):
    # the full delta over all m^3 triples certifies Z^2: it passes on the
    # generator rows and fails once the rows of a generator are left out.
    # On the labelling of symmetric3 (32 classes, under the enumeration
    # cap) those rows are not implied by the others and the tree; on the
    # dihedral(3) labelling of S3 they are, and nothing would change
    group = tmp_path / "s3.grp"
    group.write_text(format_group_table(symmetric3()))
    out = tmp_path / "s3.json"
    argv = ["h2", "--group", str(group), "--modulus", "2", "--out", str(out)]

    def failed():
        report = json.loads(out.read_text())
        names = [c["name"] for c in report["checks"]]
        assert names == ["counts_consistent", "z2_full_delta"]
        return {c["name"] for c in report["checks"] if not c["passed"]}

    assert main(argv) == 0
    assert failed() == set()
    _drop_last_generator_rows(monkeypatch)
    assert main(argv) == 1
    assert failed() == {"z2_full_delta"}


def test_full_delta_certificate_on_d6(monkeypatch):
    # D6 as S3 x Z2, the labelling on which the last generator's rows of M
    # carry information (on dihedral(6) the other rows and the tree imply
    # them); the mutation leaves 128 classes
    d6 = direct_product(symmetric3(), cyclic(2))
    h2 = cohomology.second_cohomology(d6, 2)
    assert h2.invariant_factors == [2, 2, 2]
    assert _full_delta_zero(h2).all()
    _drop_last_generator_rows(monkeypatch)
    h2 = cohomology.second_cohomology(d6, 2)
    closed = _full_delta_zero(h2)
    assert len(closed) == len(h2.z2_generators) + h2.size
    assert not closed[:len(h2.z2_generators)].all()
    assert not closed.all()


def test_h2_modulus_one(files):
    assert main(["h2", "--group", files["z3"], "--modulus", "1"]) == 0


def test_extend_zero_cochain(files, tmp_path):
    zero = tmp_path / "zero.coc"
    zero.write_text(format_cochain(Cochain(cyclic(3), 3, 2,
                                           np.zeros((3, 3), dtype=int))))
    out = tmp_path / "ext.json"
    assert main(["extend", "--group", files["z3"], "--cochain", str(zero),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["order"] == 9
    assert payload["fingerprint"]["element_orders"] == [1, 3, 3, 3, 3, 3, 3, 3, 3]


def test_extend_z4_cocycle(files, tmp_path):
    out = tmp_path / "z4.json"
    assert main(["extend", "--group", files["z2"], "--cochain",
                 files["z4coc"], "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["fingerprint"]["element_orders"] == [1, 2, 4, 4]
    table = np.array(payload["table"])
    assert table.shape == (4, 4)


def test_extend_rejects_non_cocycle(files, tmp_path):
    out = tmp_path / "bad.json"
    assert main(["extend", "--group", files["z2"], "--cochain",
                 files["badcoc"], "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert not report["all_passed"]
    triple = report["payload"]["violating_triple"]
    assert len(triple) == 3


def test_extend_checks_cocycle_condition_once(files, tmp_path, monkeypatch):
    calls = []

    def counted(cochain):
        calls.append(cochain)
        return cochains.violating_triple(cochain)

    for module in (cli, extensions):
        if hasattr(module, "violating_triple"):
            monkeypatch.setattr(module, "violating_triple", counted)
    assert main(["extend", "--group", files["z2"], "--cochain",
                 files["z4coc"]]) == 0
    assert len(calls) == 1
    out = tmp_path / "bad.json"
    assert main(["extend", "--group", files["z2"], "--cochain",
                 files["badcoc"], "--out", str(out)]) == 1
    assert len(calls) == 2
    triple = json.loads(out.read_text())["payload"]["violating_triple"]
    assert tuple(triple) == cochains.violating_triple(calls[1])


def test_h2_checks_cocycle_condition_once(files, monkeypatch):
    # z2_full_delta applies the full delta to each Z^2 generator once and
    # to no representative: those it certifies by linearity, and the
    # extension tables are built from them without a second pass
    calls, seen = [], []
    real_stack = cochains.delta_stack

    def counted(cochain):
        calls.append(cochain)
        return cochains.violating_triple(cochain)

    def recording(group, n, p, values):
        values = np.asarray(values)
        if p == 2:
            seen.extend(v.tobytes() for v in values.reshape(-1, group.order**2))
        return real_stack(group, n, p, values)

    for module in (cli, extensions):
        if hasattr(module, "violating_triple"):
            monkeypatch.setattr(module, "violating_triple", counted)
    monkeypatch.setattr(cochains, "delta_stack", recording)
    monkeypatch.setattr(cli, "delta_stack", recording)
    h2 = cohomology.second_cohomology(dihedral(8), 2)
    seen.clear()
    assert main(["h2", "--group", files["d8"], "--modulus", "2"]) == 0
    assert calls == []
    assert Counter(seen) == Counter(c.values.astype(np.int64).tobytes()
                                    for c in h2.z2_generators)


def _flip_entry(cochain, index):
    """The cochain with one entry raised by 1 mod n."""
    flat = cochain.values.reshape(-1).astype(np.int64)
    flat[index] += 1
    return Cochain(cochain.group, cochain.modulus, 2, flat)


def _flip_representative(h2):
    h2.representatives[3] = _flip_entry(h2.representatives[3], 5)
    return {3}


def _used_generator(h2):
    """The first Z^2 generator with a nonzero weight in some class."""
    return int(np.flatnonzero(h2.weights.any(axis=0))[0])


def _flip_weight(h2):
    j = _used_generator(h2)
    h2.weights = h2.weights.copy()
    h2.weights[3, j] = (h2.weights[3, j] + 1) % h2.modulus
    return {3}


def _flip_generator(h2):
    # the generator fails delta, and every representative that uses it
    # no longer matches the weighted sum
    j = _used_generator(h2)
    h2.z2_generators[j] = _flip_entry(h2.z2_generators[j], 5)
    return set(np.flatnonzero(h2.weights[:, j]))


def _flip_generator_and_representatives(h2):
    # the representatives still match the weighted sum of the generators,
    # but those using the open generator are not certified by it
    j = _used_generator(h2)
    h2.z2_generators[j] = _flip_entry(h2.z2_generators[j], 5)
    gens = np.array([c.values.reshape(-1) for c in h2.z2_generators])
    h2.representatives = [Cochain(h2.group, h2.modulus, 2, w @ gens)
                          for w in h2.weights]
    return set(np.flatnonzero(h2.weights[:, j]))


@pytest.mark.parametrize("mutate", [
    _flip_representative, _flip_weight, _flip_generator,
    _flip_generator_and_representatives,
], ids=["representative", "weight", "generator", "generator-and-sum"])
def test_full_delta_certificate_counts_one_flipped_entry(tmp_path, monkeypatch,
                                                          mutate):
    # D6 as S3 x Z2 at n = 2: 8 classes over Z^2 generators
    group = tmp_path / "d6.grp"
    group.write_text(format_group_table(direct_product(symmetric3(),
                                                       cyclic(2))))
    out = tmp_path / "d6.json"
    real, uncertified = cli.second_cohomology, {}

    def mutated(group, n):
        h2 = real(group, n)
        uncertified["reps"] = mutate(h2)
        uncertified["generators"] = len(h2.z2_generators)
        return h2

    monkeypatch.setattr(cli, "second_cohomology", mutated)
    assert main(["h2", "--group", str(group), "--modulus", "2",
                 "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    row, = [c for c in report["checks"] if c["name"] == "z2_full_delta"]
    reps = uncertified["reps"]
    open_generators = 1 if "generator" in mutate.__name__ else 0
    assert 0 < len(reps) < 8
    assert not row["passed"]
    assert row["residual"] == len(reps) + open_generators
    assert row["trials"] == uncertified["generators"] + 8
    # a fingerprint only where the representative is certified
    missing = {i for i, c in enumerate(report["payload"]["classes"])
               if c["fingerprint"] is None}
    assert missing == reps


def test_counts_consistent_decides_in_the_report(files, tmp_path,
                                                  monkeypatch):
    # a wrong |B^2| reaches the report row instead of escaping main; the
    # oracle is infeasible on D8 (2^256 cochains), so no other row sees it
    real = cli.second_cohomology

    def doubled(group, n):
        h2 = real(group, n)
        h2.b2_size *= 2
        return h2

    monkeypatch.setattr(cli, "second_cohomology", doubled)
    out = tmp_path / "d8.json"
    assert main(["h2", "--group", files["d8"], "--modulus", "2",
                 "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert {c["name"] for c in report["checks"] if not c["passed"]} \
        == {"counts_consistent"}


def test_extend_modulus_cross_check(files):
    assert main(["extend", "--group", files["z2"], "--cochain",
                 files["z4coc"], "--modulus", "3"]) == 2


def test_verify_small_run(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--trials", "3", "--samples", "64",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_passed"]
    names = {c["name"] for c in report["checks"]}
    assert names == {"antisymmetry", "bilinearity", "delta_alpha",
                     "delta_R_vs_d_alpha", "closedness", "pushforward_merge",
                     "resolution_doubling", "left_invariance",
                     "left_invariance_fd"}
    for check in report["checks"]:
        assert check["residual"] <= check["tolerance"]


def test_verify_full_defaults_pass(tmp_path):
    # the documented default configuration: n=2, N=128, K=3, 100 trials
    out = tmp_path / "full.json"
    assert main(["verify", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_passed"]
    assert report["parameters"] == {
        "dim": 2, "samples": 128, "modes": 3, "seed": 0,
        "trials": 100, "negate_alpha": False}


def test_verify_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    flags = ["verify", "--trials", "5", "--samples", "64", "--seed", "1"]
    assert main(flags + ["--out", str(a)]) == 0
    assert main(flags + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, code", [
    (["h2", "--group", "d8", "--modulus", "2"], 0),
    (["extend", "--group", "z2", "--cochain", "z4coc"], 0),
    (["extend", "--group", "z2", "--cochain", "badcoc"], 1),
    (["period", "--grid", "8x8"], 0),
], ids=["h2", "extend", "extend-rejected", "period"])
def test_reports_are_byte_identical(files, tmp_path, argv, code):
    argv = [files.get(arg, arg) for arg in argv]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == code
    assert main(argv + ["--out", str(b)]) == code
    assert a.read_bytes() == b.read_bytes()


_PINNED_REPORT = {
    "all_passed": False,
    "checks": [{"name": "first", "residual": 1e-15, "passed": True},
               {"name": "second", "residual": 0.1, "passed": False}],
    "inputs": {},
    "payload": {"classes": [], "cocycle": [0, 1, 1, 0],
                "fingerprint": {"element_orders": [1, 2, 4, 4],
                                "is_abelian": True},
                "table": [[0, 1], [1, 0]], "zero": 0.0},
}

_PINNED_TEXT = """{
  "all_passed": false,
  "checks": [
    {
      "name": "first",
      "passed": true,
      "residual": 1e-15
    },
    {
      "name": "second",
      "passed": false,
      "residual": 0.1
    }
  ],
  "inputs": {},
  "payload": {
    "classes": [],
    "cocycle": [0, 1, 1, 0],
    "fingerprint": {
      "element_orders": [1, 2, 4, 4],
      "is_abelian": true
    },
    "table": [[0, 1], [1, 0]],
    "zero": 0.0
  }
}
"""


def test_report_json_layout():
    # dicts and lists of dicts indented by two, other lists on one line
    assert report_json(_PINNED_REPORT) == _PINNED_TEXT
    assert json.loads(_PINNED_TEXT) == _PINNED_REPORT


def test_report_json_round_trips_every_command(files, tmp_path, monkeypatch):
    written = []
    monkeypatch.setattr(cli, "write_report",
                        lambda report, path: written.append(report))
    out = ["--out", str(tmp_path / "unused.json")]
    for argv in (["h2", "--group", files["v4"], "--modulus", "2"],
                 ["extend", "--group", files["z2"], "--cochain",
                  files["z4coc"]],
                 ["extend", "--group", files["z2"], "--cochain",
                  files["badcoc"]],
                 ["verify", "--trials", "2", "--samples", "64"],
                 ["period", "--grid", "8x8"]):
        main(argv + out)
    assert [r["command"] for r in written] == ["h2", "extend", "extend",
                                               "verify", "period"]
    for report in written:
        assert json.loads(report_json(report)) == report


def test_verify_zero_trials_empty_report(tmp_path):
    out = tmp_path / "empty.json"
    assert main(["verify", "--trials", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["checks"] == [] and report["all_passed"]


def test_gamma_battery_rows():
    # no trials, no rows; otherwise one row per identity, each residual
    # a float worst case
    assert verify.run_gamma_battery(trials=0) == []
    checks = verify.run_gamma_battery(samples=64, trials=2)
    assert [c.name for c in checks] == sorted(verify.TOLERANCES)
    assert all(type(c.residual) is float and c.trials == 2 for c in checks)


def test_verify_negate_alpha_fails(tmp_path):
    out = tmp_path / "neg.json"
    assert main(["verify", "--trials", "3", "--samples", "64",
                 "--negate-alpha", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["delta_R_vs_d_alpha"]


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_verify_report_independent_of_chunk(tmp_path, monkeypatch, dim):
    # a trial's residuals never depend on the trials stacked beside it;
    # at N = 128, 11 trials make one partial stack at dim 2, one full and
    # one partial stack at dim 3, and three stacks at dim 4 (one trial per
    # stack at dim 8), against one trial per stack and all 11 in one stack
    flags = ["verify", "--dim", str(dim), "--trials", "11", "--seed", "2"]
    reports = []
    for entries in (verify._STACK_ENTRIES, 1, 11 * 128 * dim**2):
        monkeypatch.setattr(verify, "_STACK_ENTRIES", entries)
        out = tmp_path / ("%d.json" % entries)
        assert main(flags + ["--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("flags", [["--dim", "0"], ["--dim", "1"],
                                   ["--trials", "-1"], ["--modes", "-1"],
                                   ["--samples", "24"], ["--seed", "-1"]])
def test_verify_input_bounds_exit_2(flags, capsys):
    assert main(["verify"] + flags) == 2
    assert "input error" in capsys.readouterr().err


# Admitted while the rule was "modes <= N/8", and failing on correct code:
# delta_alpha (with 2 modes at N = 16 also resolution_doubling) exceeds
# its tolerance, because the spectral derivatives alias at N = 16 and 32.
_ALIASING_INPUTS = [
    ["--dim", "2", "--samples", "16", "--modes", "2", "--seed", "9",
     "--trials", "40"],
    ["--dim", "3", "--samples", "16", "--modes", "2", "--seed", "9",
     "--trials", "40"],
    ["--dim", "3", "--samples", "16", "--modes", "1"],
    ["--dim", "6", "--samples", "32", "--modes", "4", "--trials", "10"],
    ["--dim", "8", "--samples", "32", "--modes", "4", "--trials", "10"],
]


@pytest.mark.parametrize("flags", _ALIASING_INPUTS)
def test_verify_rejects_aliasing_inputs(flags, capsys):
    assert main(["verify"] + flags) == 2
    assert ("verify admits modes = 0, or 1 <= modes <= N/8 with N >= 64"
            in capsys.readouterr().err)


@pytest.mark.parametrize("flags", _ALIASING_INPUTS)
def test_verify_nearest_admitted_neighbours_pass(flags):
    # the same request at N = 64, and at the same N without modes
    i, j = flags.index("--samples"), flags.index("--modes")
    at_64, no_modes = list(flags), list(flags)
    at_64[i + 1] = "64"
    no_modes[j + 1] = "0"
    assert main(["verify"] + at_64) == 0
    assert main(["verify"] + no_modes) == 0


def test_verify_admitted_region_boundaries():
    # the guard corner of 8192 trials at N = 16 without modes stays
    # admitted; with modes, N = 32 is out and N = 64 admits up to N/8
    verify.check_battery_input(16, 0)
    with pytest.raises(ValueError, match="N >= 64"):
        verify.check_battery_input(32, 1)
    verify.check_battery_input(64, 8)
    with pytest.raises(ValueError, match="N >= 64"):
        verify.check_battery_input(64, 9)


def test_verify_step_flag_removed(capsys):
    # the exterior derivatives are closed forms; there is no step to set
    for flags in (["--step", "1e-3"], ["--trials", "0", "--step", "5"]):
        assert main(["verify"] + flags) == 2
        assert "unrecognized arguments: --step" in capsys.readouterr().err


def _exits_3_without_allocating(argv):
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code == 3 and peak < 2**20


def test_verify_capacity_guard():
    # dim 2, N = 16, no modes: trials * 16 * 4 * 256 units, 2^13 trials fit
    small = ["--dim", "2", "--samples", "16", "--modes", "0"]
    assert verify.MAX_BATTERY_WORK == 2**13 * 16 * 4 * 256
    verify.check_battery_capacity(2, 16, 0, 2**13)
    with pytest.raises(CapacityError):
        verify.check_battery_capacity(2, 16, 0, 2**13 + 1)
    assert _exits_3_without_allocating(
        ["verify", "--trials", str(2**13 + 1)] + small)
    assert _exits_3_without_allocating(
        ["verify", "--dim", "3", "--samples", "2048", "--modes", "256"])


def test_period_capacity_guard():
    # 128 x 512 x 128 meets both guards exactly
    assert verify.MAX_PERIOD_WORK == 128 * 512 * 128
    assert verify.MAX_PERIOD_ROW == 512 * 128
    verify.check_period_capacity(128, 512, 128)
    with pytest.raises(CapacityError, match="work"):
        verify.check_period_capacity(130, 512, 128)
    with pytest.raises(CapacityError, match="rows"):
        verify.check_period_capacity(2, 516, 128)
    assert _exits_3_without_allocating(["period", "--grid", "100000x100000"])
    assert _exits_3_without_allocating(["period", "--grid", "2x4096",
                                        "--samples", "32"])


def test_period_command(tmp_path):
    out = tmp_path / "period.json"
    assert main(["period", "--grid", "16x16", "--samples", "64",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    res = report["payload"]["resolutions"]
    assert res[0]["nearest_integer"] == res[1]["nearest_integer"] == -2
    assert all(r["deviation"] <= 1e-3 for r in res)


def test_period_degenerate_hook(tmp_path):
    assert main(["period", "--grid", "8x8", "--samples", "32",
                 "--degenerate"]) == 0


def test_period_wrong_dimension():
    assert main(["period", "--dim", "3"]) == 2


def test_period_bad_grid():
    assert main(["period", "--grid", "64"]) == 2


def test_usage_errors(files):
    assert main(["h2", "--group", "/nonexistent", "--modulus", "2"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["classify", "--group", files["z2"], "--modulus", "2"]) == 2
    assert main([]) == 2


def test_parser_is_built_once_per_process(files, tmp_path, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    h2 = ["h2", "--group", files["z2"], "--modulus", "2", "--out"]
    try:
        assert main(["nonsense"]) == 2
        first = list(built)
        assert main(["--help"]) == 0
        assert main(["h2", "--group", files["z2"], "--modulus", "0"]) == 2
        assert main(h2 + [str(a)]) == 0
        assert main(h2 + [str(b)]) == 0
    finally:
        cli._parser.cache_clear()
    assert first.count("centrex") == 1 and built == first
    assert a.read_bytes() == b.read_bytes()


def test_capacity_error_exit_code(files):
    assert main(["h2", "--group", files["d8"], "--modulus", "9"]) == 3


@pytest.mark.parametrize("modulus, code", [("0", 2), ("-2", 2), ("9", 3)])
def test_h2_modulus_bounds(files, capsys, modulus, code):
    # a modulus below 1 is malformed input; one above the guard is capacity
    assert main(["h2", "--group", files["z3"], "--modulus", modulus]) == code
    err = capsys.readouterr().err
    assert err.startswith("input error" if code == 2 else "capacity error")


def test_malformed_group_file(tmp_path):
    p = tmp_path / "junk.grp"
    p.write_text("2\n0 1\n1 x\n")
    assert main(["h2", "--group", str(p), "--modulus", "2"]) == 2


def test_integers_outside_int64_exit_2(files, tmp_path):
    huge = "99999999999999999999"
    table = tmp_path / "huge.grp"
    table.write_text("2\n0 1\n1 %s\n" % huge)
    assert main(["h2", "--group", str(table), "--modulus", "2"]) == 2
    header = tmp_path / "huge_modulus.coc"
    header.write_text("2 %s\n0 0 0 1\n" % huge)
    assert main(["extend", "--group", files["z2"],
                 "--cochain", str(header)]) == 2
    value = tmp_path / "huge_value.coc"
    value.write_text("2 2\n0 0 0 %s\n" % huge)
    assert main(["extend", "--group", files["z2"],
                 "--cochain", str(value)]) == 2


def test_extend_capacity_guard(files, tmp_path):
    # without the guard this builds a 200000 x 200000 table
    wide = tmp_path / "wide.coc"
    wide.write_text("2 100000\n0 0 0 1\n")
    assert main(["extend", "--group", files["z2"], "--cochain", str(wide)]) == 3


_TOKENS = st.one_of(st.integers(-3, 6), st.integers(-2**70, 2**70),
                    st.sampled_from(["x", "1.5", "-", "0x1", "\u0661"]))


def _square_table(m):
    rows = st.lists(_TOKENS, min_size=m, max_size=m)
    return st.lists(rows, min_size=m, max_size=m).map(lambda t: [[m]] + t)


def _sized_cochain(p):
    # header "p n" followed by the 2^p values a Z2 cochain needs
    return st.tuples(_TOKENS, st.lists(_TOKENS, min_size=2**p,
                                       max_size=2**p)).map(
        lambda nv: [p, nv[0]] + nv[1])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(st.lists(st.lists(_TOKENS, min_size=1, max_size=4),
                          max_size=5),
                 st.integers(1, 3).flatmap(_square_table)))
def test_parse_group_table_raises_only_value_error(lines):
    try:
        parse_group_table("\n".join(" ".join(map(str, ln)) for ln in lines))
    except ValueError:
        pass


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(st.lists(_TOKENS, max_size=8),
                 st.integers(0, 2).flatmap(_sized_cochain)))
def test_parse_cochain_raises_only_value_error(tokens):
    try:
        parse_cochain(" ".join(map(str, tokens)), cyclic(2))
    except ValueError:
        pass
