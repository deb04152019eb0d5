"""Correctness gate for benchmark ops.

Checks run on parsed CLI output only; nothing here imports ``trihom``, so
the gate cannot share a defect with the code it checks. Golden results
hold digests of the math keys, never whole outputs, so metadata the
reports may gain later (such as a version stamp) is not a failure.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

# Keys of a JSON payload that carry results, in report order.
MATH_KEYS = ("validation", "inferred_k", "k1", "homology", "intersection_form",
             "linking", "w2", "spin", "error")


def _strip_skips(value):
    """A skipped section keeps its place but not its wording."""
    if isinstance(value, dict):
        if "skipped" in value:
            return "skipped"
        return {k: _strip_skips(v) for k, v in value.items()}
    return value


def math_keys(payload: dict) -> dict:
    """The result-bearing parts of one JSON output, normalized."""
    out = {}
    for key in MATH_KEYS:
        if key not in payload:
            continue
        value = payload[key]
        if key == "validation":
            value = {"ok": value["ok"],
                     "failed": sorted(c["name"] for c in value["checks"] if not c["passed"])}
        elif key == "homology":
            value = {route: [r[h]["pretty"] for h in ("h0", "h1", "h2", "h3")]
                     if isinstance(r, dict) and "h0" in r else r
                     for route, r in value.items()}
        elif key == "error":
            value = value["kind"]
        out[key] = _strip_skips(value)
    return out


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def record(code: int, output: str, fmt: str) -> dict:
    """What the golden file stores for one op."""
    rec = {"exit": code}
    if fmt == "json":
        rec["math"] = {k: digest(v) for k, v in math_keys(json.loads(output)).items()}
    return rec


# ---------------------------------------------------------------------------
# invariants of the filled 4-manifold


def signature(rows: list[list[int]]) -> tuple[int, int, int]:
    """(rank, |det|, signature) of a symmetric integer matrix.

    Exact congruence diagonalization over Fraction: each step adds a
    multiple of one row and column to another, or swaps two, so the
    inertia and the determinant are kept.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    pivots: list[Fraction] = []
    for k in range(n):
        i = next((i for i in range(k, n) if m[i][i] != 0), None)
        if i is None:
            pair = next(((i, j) for i in range(k, n) for j in range(k, n) if m[i][j] != 0), None)
            if pair is None:
                break
            i, j = pair
            # zero diagonal, nonzero m[i][j]: row/col i += row/col j gives 2 m[i][j]
            m[i] = [a + b for a, b in zip(m[i], m[j])]
            for row in m:
                row[i] += row[j]
        m[k], m[i] = m[i], m[k]
        for row in m:
            row[k], row[i] = row[i], row[k]
        p = m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / p
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[k])]
                for row in m:
                    row[r] -= f * row[k]
        pivots.append(p)
    det = 0
    if len(pivots) == n:
        det = Fraction(1)
        for p in pivots:
            det *= p
    return len(pivots), abs(int(det)), sum(1 if p > 0 else -1 for p in pivots)


def invariants(report: dict) -> dict:
    """Move-invariant data of a JSON report: H_*, form rank, |det|,
    parity and signature, and the spin verdicts."""
    form = report["intersection_form"]["matrix"]
    rank, det, sig = signature(form)
    return {
        "homology": report["homology"]["closed"],
        "form": {"rank": rank, "abs_det": det, "signature": sig,
                 "even": all(form[i][i] % 2 == 0 for i in range(len(form)))},
        "spin": {route: "skipped" if "skipped" in v else v["spin"]
                 for route, v in report["spin"].items()},
    }


# ---------------------------------------------------------------------------
# per-op checks


def check_output(command: str, fmt: str, code: int, expect: int, output: str) -> list[str]:
    """Problems with one op's output judged on its own."""
    if code != expect:
        return [f"exit {code}, expected {expect}"]
    if code != 0:
        return []
    if fmt == "text":
        if "internal_error" in output or "agree: False" in output:
            return ["text report shows a route disagreement"]
        return []
    payload = json.loads(output)
    hom = payload.get("homology")
    if command in ("homology", "report") and isinstance(hom, dict) and "skipped" not in hom:
        if hom.get("agree") is not True:
            return ["homology.agree missing or false"]
        if "internal_error" in hom:
            return ["homology.internal_error present"]
    return []


def check_consistency(outputs: dict[str, dict]) -> list[tuple[str, str]]:
    """Every command on one diagram agrees with that diagram's report.

    outputs maps command -> parsed JSON payload, all from exit-0 runs;
    returns (command, problem) pairs.
    """
    report = outputs.get("report")
    if report is None:
        return []
    want = math_keys(report)
    return [(command, f"{key} differs from the report")
            for command, payload in outputs.items()
            for key, value in math_keys(payload).items()
            if key in want and value != want[key]]
