"""Structured verification reports.

A report is one JSON document: command echo, input digests, per-check
records (name, residual, tolerance, verdict), and command-specific
payload.  Serialization is deterministic (sorted keys, shortest
round-trip floats), so identical configurations produce byte-identical
files; wall-clock time is printed to standard output only and never
enters the document.
"""

from __future__ import annotations

import hashlib
import json

from . import __version__


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
        "checks": [c.as_dict() for c in checks],
        "payload": payload or {},
        "all_passed": all(c.passed for c in checks),
    }


def report_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


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
