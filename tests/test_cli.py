import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrex import cli, cochains, cohomology, extensions, verify
from centrex.cli import _full_delta_zero, main
from centrex.cochains import Cochain, format_cochain, parse_cochain
from centrex.errors import CapacityError
from centrex.groups import (cyclic, dihedral, format_group_table, klein_four,
                            parse_group_table)


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

    def counting(A, n, track_u=False):
        a = np.asarray(A)
        inputs.append((a.shape, tuple(a.ravel().tolist())))
        return real(A, n, track_u=track_u)

    monkeypatch.setattr(cohomology, "smith_normal_form", counting)
    for name, n in (("v4", "2"), ("z3", "3"), ("z3", "1")):
        inputs.clear()
        assert main(["h2", "--group", files[name], "--modulus", n]) == 0
        assert len(inputs) == 3 and len(set(inputs)) == 3


def test_h2_z2_matrix_has_generator_rows_only(files, monkeypatch):
    # Z^2 is the kernel of the delta^2 rows (g, h, s) with s in a generating
    # set: at most m^2 log2(m) rows, not m^3
    shapes = []
    real = cohomology.smith_normal_form

    def recording(A, n, track_u=False):
        shapes.append(np.asarray(A).shape)
        return real(A, n, track_u=track_u)

    monkeypatch.setattr(cohomology, "smith_normal_form", recording)
    assert main(["h2", "--group", files["d8"], "--modulus", "2"]) == 0
    m = dihedral(8).order
    z2_rows = [rows for rows, cols in shapes if cols == m * m]
    assert len(z2_rows) == 1
    assert z2_rows[0] <= m * m * math.ceil(math.log2(m))


def test_h2_full_delta_certificate(tmp_path, monkeypatch):
    # the full delta over all m^3 triples certifies Z^2: it passes on the
    # generator rows of delta^2 and fails once a generator is left out
    # (which on S3 leaves 64 classes, under the enumeration cap)
    group = tmp_path / "s3.grp"
    group.write_text(format_group_table(dihedral(3)))
    out = tmp_path / "s3.json"
    argv = ["h2", "--group", str(group), "--modulus", "2", "--out", str(out)]

    def failed():
        report = json.loads(out.read_text())
        names = [c["name"] for c in report["checks"]]
        assert names == ["counts_consistent", "z2_full_delta"]
        return {c["name"] for c in report["checks"] if not c["passed"]}

    assert main(argv) == 0
    assert failed() == set()
    real = cohomology.generating_set
    monkeypatch.setattr(cohomology, "generating_set",
                        lambda table: real(table)[:-1])
    assert main(argv) == 1
    assert failed() == {"z2_full_delta"}


def test_full_delta_certificate_on_d6(monkeypatch):
    d6 = dihedral(6)
    h2 = cohomology.second_cohomology(d6, 2)
    assert _full_delta_zero(h2).all()
    real = cohomology.generating_set
    monkeypatch.setattr(cohomology, "generating_set",
                        lambda table: real(table)[:-1])
    # a dropped generator leaves 8192 "classes"; enumerate them anyway
    h2 = cohomology.second_cohomology(d6, 2, max_classes=2**13)
    closed = _full_delta_zero(h2)
    assert len(closed) == len(h2.z2_generators) + h2.size
    assert not closed[:len(h2.z2_generators)].all()
    assert not closed.all()


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
    # z2_full_delta applies the full delta to every representative, and
    # the extension tables are built from those without a second pass
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
    # one pass over each Z^2 generator and each representative, no more
    expected = h2.z2_generators + h2.representatives
    assert Counter(seen) == Counter(c.values.tobytes() for c in expected)


def test_counts_consistent_decides_in_the_report(files, tmp_path,
                                                  monkeypatch):
    # a wrong |B^2| reaches the report row instead of escaping main; the
    # oracle is infeasible on D8 (2^256 cochains), so no other row sees it
    real = cohomology._coboundary_space

    def doubled(group, n, A):
        space = real(group, n, A)
        space.size *= 2
        return space

    monkeypatch.setattr(cohomology, "_coboundary_space", doubled)
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


@pytest.mark.parametrize("dim", ["2", "3"])
def test_verify_report_independent_of_chunk(tmp_path, monkeypatch, dim):
    # a trial's residuals never depend on the trials stacked beside it;
    # 11 trials at N = 128 make one full stack and one partial stack
    flags = ["verify", "--dim", dim, "--trials", "11", "--seed", "2"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(flags + ["--out", str(a)]) == 0
    monkeypatch.setattr(verify, "_CHUNK_SAMPLES", 1)
    assert main(flags + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


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
    assert main([]) == 2


def test_capacity_error_exit_code(files):
    assert main(["h2", "--group", files["d8"], "--modulus", "9"]) == 3


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
