"""Correctness checks on CLI results.

A document fails on any of: an exception escaping `cli.main` (a
traceback, raised or printed on stderr), an exit code outside the workload's set, a report on stdout
that does not validate against schemas/report.schema.json, a verified
point with `soundness_pass: false`, or an exit 4 whose failures cite
soundness.  Exit codes 1 and 3 print no report; they pass only when the
workload allows them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional

import jsonschema


@dataclass
class DocResult:
    index: int
    family: str
    exit_code: Optional[int]
    stdout: str
    stderr: str
    traceback: Optional[str]
    seconds: float


class Checker:
    def __init__(self, schema_path: str):
        with open(schema_path) as fh:
            schema = json.load(fh)
        self._validator = jsonschema.Draft7Validator(schema)

    def problems(self, res: DocResult, exit_codes) -> List[str]:
        """Every reason `res` fails; empty when it passes."""
        if res.traceback is not None:
            return ["traceback: " + res.traceback.strip().splitlines()[-1]]
        out: List[str] = []
        if "Traceback (most recent call last)" in res.stderr:
            out.append("traceback printed on stderr")
        if res.exit_code not in exit_codes:
            out.append(f"exit code {res.exit_code} not in {sorted(exit_codes)}")
        if res.exit_code in (1, 3):
            return out
        try:
            report = json.loads(res.stdout)
        except json.JSONDecodeError as exc:
            return out + [f"stdout is not JSON: {exc}"]
        errors = sorted(self._validator.iter_errors(report), key=str)
        if errors:
            out.append(f"schema: {errors[0].message}")
        for k, entry in enumerate(report.get("evidence", [])):
            if entry.get("evidence", {}).get("soundness_pass") is not True:
                out.append(f"point {k + 1}: soundness_pass is not true")
        if res.exit_code == 4:
            out += [f"mismatch cites {f}" for f in report.get("failures", []) if "soundness" in f]
        return out


# Closure and verdict blocks of the README quick-start group, and the
# evidence the README promises under `verify --word-cap 10`.  The README
# prints a subset of each block's keys; reports may carry more.
README_CLOSURE = {
    "kind": "RotationCoset",
    "family": "S2",
    "rotation_order": 4,
    "apex": ["0"],
    "point": ["1/2"],
    "exact": True,
    "translation_closure": {"shape": "Lattice2", "basis": ["[1, 1]", "[0, 2]"], "exact": True},
    "outer_bound": ["1+1i", "1-1i"],
    "inner_bound": ["2i", "-2i", "2"],
    "provenance": "Thm1.1(2)(ii)",
}
README_VERDICTS = {
    "has_dense_orbit": "no",
    "all_orbits_closed_discrete": "yes",
    "no_discrete_orbit": "no",
    "all_orbits_in_U_dense": "no",
}
README_RENDERING = "F * (z - apex) + apex + closure(G1(0))"


def warmup_problems(exit_code: Optional[int], stdout: str) -> List[str]:
    """Differences between the warm-up report and the README's claims."""
    if exit_code != 0:
        return [f"warm-up exit code {exit_code}, README promises 0"]
    try:
        report = json.loads(stdout)
        closure = report["closures"][0]
        evidence = report["evidence"][0]["evidence"]
    except (json.JSONDecodeError, KeyError, IndexError) as exc:
        return [f"warm-up report unreadable: {exc!r}"]
    out = _subset_problems("closure", closure, README_CLOSURE)
    out += _subset_problems("verdicts", report.get("verdicts", {}), README_VERDICTS)
    if (closure.get("renderings") or [None])[0] != README_RENDERING:
        out.append("warm-up closure rendering differs from the README")
    if evidence.get("max_violation") != 0.0 or evidence.get("exact_membership") is not True:
        out.append("warm-up evidence is not an exact, violation-free membership")
    if evidence.get("discreteness_pass") is not True or abs(evidence.get("min_gap", 0) - 0.5 ** 0.5) > 1e-9:
        out.append(f"warm-up min_gap {evidence.get('min_gap')!r} is not the stable 0.707...")
    if report.get("failures") != []:
        out.append(f"warm-up failures {report.get('failures')!r}")
    return out


def _subset_problems(block: str, got: dict, want: dict) -> List[str]:
    out: List[str] = []
    for key, value in want.items():
        if isinstance(value, dict):
            out += _subset_problems(f"{block}.{key}", got.get(key) or {}, value)
        elif got.get(key) != value:
            out.append(f"warm-up {block}.{key}: {got.get(key)!r} != {value!r}")
    return out
