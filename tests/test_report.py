import hashlib
import math

import numpy as np
import pytest

from centrex import report
from centrex.cli import main

V4_TABLE = """4
0 1 2 3
1 0 3 2
2 3 0 1
3 2 1 0
"""

D4_TABLE = """8
0 1 2 3 4 5 6 7
1 2 3 0 5 6 7 4
2 3 0 1 6 7 4 5
3 0 1 2 7 4 5 6
4 7 6 5 0 3 2 1
5 4 7 6 1 0 3 2
6 5 4 7 2 1 0 3
7 6 5 4 3 2 1 0
"""


def _d4_cochain(values):
    return "2 2\n" + "\n".join(" ".join(str(v) for v in row)
                               for row in np.reshape(values, (8, 8))) + "\n"


# flip(g) flip(h): the pullback of the nontrivial cocycle of Z2 along
# D4 -> Z2, so a cocycle; and one nonzero entry, which is not
FLIP_COCYCLE = _d4_cochain(np.outer(np.arange(8) >= 4, np.arange(8) >= 4)
                           .astype(int))
ONE_ENTRY = _d4_cochain(np.eye(1, 64, 9, dtype=int))

# SHA-256 of each report and the exit code of its command.  The reports
# hold integers only, so BLAS round-off cannot move them; a change of
# these bytes is a change of the report format.
PINNED = {
    "h2_v4_2.json": (
        0, "0efa7b03af85ba2f155b6194912997a328a1e5f7022c6b2be4a76fd0f2bb5478"),
    "h2_d4_4.json": (
        0, "7fa94022978470a29afc5851352dbd2384ddacb7bd9bbc729ddd4db12570fee6"),
    "extend_d4_flip.json": (
        0, "96976ccc60206496460f5eb1a06fce1bb5f5d89ba3486dd4876c796c4296c969"),
    "extend_d4_one.json": (
        1, "d7b43d4e4e5a18c0798a6cfbf3a5610335813fece57d1a7efe5f7648ed892415"),
}


def test_group_reports_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in (("v4.grp", V4_TABLE), ("d4.grp", D4_TABLE),
                       ("flip.coc", FLIP_COCYCLE), ("one.coc", ONE_ENTRY)):
        (tmp_path / name).write_text(text)
    runs = {
        "h2_v4_2.json": ["h2", "--group", "v4.grp", "--modulus", "2"],
        "h2_d4_4.json": ["h2", "--group", "d4.grp", "--modulus", "4"],
        "extend_d4_flip.json": ["extend", "--group", "d4.grp",
                                "--cochain", "flip.coc"],
        "extend_d4_one.json": ["extend", "--group", "d4.grp",
                               "--cochain", "one.coc"],
    }
    got = {}
    for out, argv in runs.items():
        code = main(argv + ["--out", out])
        got[out] = (code, hashlib.sha256(
            (tmp_path / out).read_bytes()).hexdigest())
    assert got == PINNED


def test_judged_passes_up_to_its_tolerance():
    tolerance = 1e-12
    assert report.judged("row", tolerance, tolerance).passed
    above = np.nextafter(tolerance, 1.0)
    assert not report.judged("row", above, tolerance).passed
    row = report.judged("row", math.nan, tolerance, trials=5)
    assert not row.passed and math.isnan(row.residual) and row.trials == 5


@pytest.mark.parametrize("failures, passed", [(0, True), (3, False)])
def test_judged_counts_failures_of_an_exact_check(failures, passed):
    row = report.judged("exact", np.int64(failures), 0.0)
    assert type(row.residual) is float and row.residual == float(failures)
    assert row.passed is passed and row.trials == 1
