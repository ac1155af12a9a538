"""Structured verification reports.

A report is one JSON document: command echo, input digests, per-check
records (name, residual, tolerance, verdict, trials; ``judged`` gives
each its verdict by one rule), and command-specific payload.
Serialization is deterministic (sorted keys, shortest round-trip floats,
a trailing newline), so identical configurations produce byte-identical
files; wall-clock time is printed to standard output only and never
enters the document.

Layout: a dict, and a list whose items are all dicts, open one line per
item indented by two spaces, as ``json.dumps(indent=2)`` writes them.
Every other list (a cochain, a table, element orders, a violating
triple) is written on one line by the C encoder with ", " between items,
so a report of n^2 m^2 table entries costs no Python call per entry.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from . import __version__


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    trials: int


def judged(name, residual, tolerance, trials=1):
    """The check row of ``residual`` against ``tolerance``: it passes when
    residual <= tolerance, so a NaN residual fails.  An exact check
    passes its failure count against tolerance 0."""
    return CheckResult(name=name, residual=float(residual),
                       tolerance=tolerance, passed=bool(residual <= tolerance),
                       trials=trials)


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_report(command, parameters, checks, payload=None, inputs=None):
    return {
        "tool": "centrex",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "inputs": inputs or {},
        "checks": [asdict(c) for c in checks],
        "payload": payload or {},
        "all_passed": all(c.passed for c in checks),
    }


_flat = json.JSONEncoder(sort_keys=True, separators=(", ", ": ")).encode


def _layout(value, indent, out):
    """Append the pieces of ``value`` at nesting ``indent`` to ``out``."""
    if isinstance(value, dict) and value:
        rows = [(_flat(k) + ": ", value[k]) for k in sorted(value)]
        brackets = "{}"
    elif (isinstance(value, (list, tuple)) and value
          and all(isinstance(v, dict) for v in value)):
        rows = [("", v) for v in value]
        brackets = "[]"
    else:
        out.append(_flat(value))
        return
    inner = indent + "  "
    out.append(brackets[0])
    for i, (head, item) in enumerate(rows):
        out.append((",\n" if i else "\n") + inner + head)
        _layout(item, inner, out)
    out.append("\n" + indent + brackets[1])


def report_json(report):
    """The report as deterministic JSON text (layout in the module
    docstring)."""
    out = []
    _layout(report, "", out)
    return "".join(out) + "\n"


def write_report(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_json(report))


def human_summary(report):
    lines = ["%s (centrex %s)" % (report["command"], report["version"])]
    for check in report["checks"]:
        lines.append("  %-28s residual=%-13s tolerance=%-10s %s" % (
            check["name"], "%.6e" % check["residual"],
            "%.1e" % check["tolerance"],
            "PASS" if check["passed"] else "FAIL"))
    lines.append("overall: %s" % ("PASS" if report["all_passed"] else "FAIL"))
    return "\n".join(lines)
