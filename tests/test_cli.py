import json

import numpy as np
import pytest

from centrex import cohomology
from centrex.cli import main
from centrex.cochains import Cochain, format_cochain
from centrex.groups import cyclic, dihedral, format_group_table, klein_four


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

    def counting(A, track_u=False):
        a = np.asarray(A)
        inputs.append((a.shape, tuple(a.ravel().tolist())))
        return real(A, track_u=track_u)

    monkeypatch.setattr(cohomology, "smith_normal_form", counting)
    for name, n in (("v4", "2"), ("z3", "3"), ("z3", "1")):
        inputs.clear()
        assert main(["h2", "--group", files[name], "--modulus", n]) == 0
        assert len(inputs) == 3 and len(set(inputs)) == 3


def test_h2_modulus_one(files):
    assert main(["classify", "--group", files["z3"], "--modulus", "1"]) == 0


def test_classify_alias_matches_h2(files, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["h2", "--group", files["z2"], "--modulus", "2", "--out", str(a)])
    main(["classify", "--group", files["z2"], "--modulus", "2",
          "--out", str(b)])
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert ra["payload"] == rb["payload"]
    assert rb["command"] == "classify"


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
    # the documented default configuration: n=2, N=128, K=3, h=1e-3, 100 trials
    out = tmp_path / "full.json"
    assert main(["verify", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_passed"]
    assert report["parameters"] == {
        "dim": 2, "samples": 128, "modes": 3, "seed": 0, "step": 1e-3,
        "trials": 100, "negate_alpha": False}


def test_verify_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    flags = ["verify", "--trials", "5", "--samples", "64", "--seed", "1"]
    assert main(flags + ["--out", str(a)]) == 0
    assert main(flags + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_zero_trials_empty_report(tmp_path):
    out = tmp_path / "empty.json"
    assert main(["verify", "--trials", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["checks"] == [] and report["all_passed"]


def test_verify_negate_alpha_fails(tmp_path):
    out = tmp_path / "neg.json"
    assert main(["verify", "--trials", "3", "--samples", "64",
                 "--negate-alpha", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["delta_R_vs_d_alpha"]


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
    assert main([]) == 2


def test_capacity_error_exit_code(files):
    assert main(["h2", "--group", files["d8"], "--modulus", "9"]) == 3


def test_malformed_group_file(tmp_path):
    p = tmp_path / "junk.grp"
    p.write_text("2\n0 1\n1 x\n")
    assert main(["h2", "--group", str(p), "--modulus", "2"]) == 2
