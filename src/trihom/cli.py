"""File-based front end.

Reads a diagram file (JSON, schema in the README), runs the requested
computation, and prints a text or JSON report. Exit codes: 0 success,
1 rejected diagram, 2 parse error, 3 unsatisfied precondition, 4 internal
error (two routes disagree, and the printed section says which; or any
other exception, such as a result integer too long to print, reported as
"error (internal): <type>: <message>").

JSON reports are byte-deterministic: keys are sorted, matrices are
row-major nested arrays, and every lattice basis underneath is canonical.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Sequence

from .charclass import linking_matrix_y, linking_matrix_z, spin_y, spin_z, w2_y, w2_z
from .exactalg import AbelianGroup, IntMatrix
from .homology import (
    HomologyResult,
    build_cy,
    build_cz,
    h_closed_forms,
    homology_of,
    intersection_form,
)
from .surface import (
    Diagram,
    DiagramError,
    DiagramMatrices,
    PreconditionError,
    SurfaceSignature,
    infer_k,
    j_matrix,
    r_matrix,
    require_valid,
    s_matrix,
    validate,  # noqa: F401 -- perfbench's tracer test wraps trihom.cli.validate
)


class ParseError(ValueError):
    """The input file is structurally malformed."""


# ---------------------------------------------------------------------------
# diagram files


def _need(obj: dict, field: str) -> Any:
    if field not in obj:
        raise ParseError(f"missing field {field!r}")
    return obj[field]


def _as_int(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{field}: expected an integer, got {value!r}")
    return value


def _as_vector(value: Any, length: int, field: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ParseError(f"{field}: expected a list, got {type(value).__name__}")
    if len(value) != length:
        raise ParseError(f"{field}: expected length {length}, got {len(value)}")
    return tuple(_as_int(x, f"{field}[{i}]") for i, x in enumerate(value))


def _as_vector_list(value: Any, length: int, field: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list):
        raise ParseError(f"{field}: expected a list of vectors")
    return tuple(_as_vector(v, length, f"{field}[{i}]") for i, v in enumerate(value))


def _as_matrix(value: Any, rows: int, cols: int, field: str) -> IntMatrix:
    if not isinstance(value, list):
        raise ParseError(f"{field}: expected a nested list")
    if len(value) != rows:
        raise ParseError(f"{field}: expected {rows} rows, got {len(value)}")
    vectors = [_as_vector(r, cols, f"{field}[{i}]") for i, r in enumerate(value)]
    return IntMatrix.from_rows(vectors, cols=cols)


_CLASS_FIELDS = {"alpha", "beta", "gamma", "arcs", "standard_position_assertion"}
_MATRIX_FIELDS = {"k1", "Q_gamma_beta", "Q_alpha_gamma", "Q_a_gamma", "Q_beta_alpha"}
_COMMON_FIELDS = {"mode", "g", "p", "b", "k"}


def parse_obj(obj: Any, assert_standard: bool = False) -> Diagram | DiagramMatrices:
    """The Diagram (class mode) or DiagramMatrices (matrix mode) that
    decoded JSON describes; raises ParseError with the offending field
    named. assert_standard asserts standard position as the file field
    standard_position_assertion does."""
    if not isinstance(obj, dict):
        raise ParseError("top level must be a JSON object")
    mode = _need(obj, "mode")
    if mode not in ("class", "matrix"):
        raise ParseError(f"mode: expected 'class' or 'matrix', got {mode!r}")
    g = _as_int(_need(obj, "g"), "g")
    p = _as_int(_need(obj, "p"), "p")
    b = _as_int(_need(obj, "b"), "b")
    try:
        sig = SurfaceSignature(g, p, b)
    except ValueError as e:
        raise ParseError(str(e)) from None

    allowed = _COMMON_FIELDS | (_CLASS_FIELDS if mode == "class" else _MATRIX_FIELDS)
    for key in obj:
        if key not in allowed:
            raise ParseError(f"unexpected field {key!r} for mode {mode!r}")

    k = _as_vector(obj["k"], 3, "k") if obj.get("k") is not None else None

    if mode == "class":
        n = sig.n
        alpha = _as_vector_list(_need(obj, "alpha"), n, "alpha")
        beta = _as_vector_list(_need(obj, "beta"), n, "beta")
        gamma = _as_vector_list(_need(obj, "gamma"), n, "gamma")
        arcs = None
        if obj.get("arcs") is not None:
            arcs = _as_vector_list(obj["arcs"], n, "arcs")
            if len(arcs) != n:
                raise ParseError(f"arcs: expected {n} arc classes, got {len(arcs)}")
        assertion = obj.get("standard_position_assertion", False)
        if not isinstance(assertion, bool):
            raise ParseError("standard_position_assertion: expected a boolean")
        return Diagram.build(
            g, p, b, alpha=alpha, beta=beta, gamma=gamma, k=k, arcs=arcs,
            standard_position=assertion or assert_standard,
        )

    c = sig.curves_per_family
    k1 = _as_int(_need(obj, "k1"), "k1")
    qgb = _as_matrix(_need(obj, "Q_gamma_beta"), c, c, "Q_gamma_beta")
    qag = _as_matrix(_need(obj, "Q_alpha_gamma"), c, c, "Q_alpha_gamma")
    qa_g = _as_matrix(_need(obj, "Q_a_gamma"), sig.l, c, "Q_a_gamma")
    qba = None
    if obj.get("Q_beta_alpha") is not None:
        qba = _as_matrix(obj["Q_beta_alpha"], c, c, "Q_beta_alpha")
    return DiagramMatrices(
        sig=sig, k1=k1, q_gamma_beta=qgb, q_alpha_gamma=qag, q_a_gamma=qa_g, q_beta_alpha=qba,
        k=k,
    )


def parse(path: str, assert_standard: bool = False) -> Diagram | DiagramMatrices:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except ValueError as e:  # an integer past the interpreter's digit limit
        raise ParseError(f"{path}: {e}") from None
    return parse_obj(obj, assert_standard)


# ---------------------------------------------------------------------------
# the report and its projections


def _group_json(gp: AbelianGroup) -> dict:
    return {
        "free_rank": gp.free_rank,
        "invariant_factors": list(gp.invariant_factors),
        "pretty": str(gp),
    }


def _homology_json(h: HomologyResult) -> dict:
    return {
        "h0": _group_json(h.h0),
        "h1": _group_json(h.h1),
        "h2": _group_json(h.h2),
        "h3": _group_json(h.h3),
    }


def _validation_json(report) -> dict:
    return {
        "ok": report.ok,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }


def _conventions_json(sig: SurfaceSignature) -> dict:
    return {
        "pairing_curve_curve": "x^T (S^T - S) y",
        "pairing_arc_curve": "a^T x (curve-arc pairing is the negative)",
        "S": s_matrix(sig).to_rows(),
        "J_equals_St_minus_S": j_matrix(sig).to_rows(),
        "R": r_matrix(sig).to_rows(),
        "anchors": [
            "genus-1, one boundary component: q_matrix([alpha],[gamma]) = [[1]] "
            "for alpha=(1,0), gamma=(1,1)",
            "disk bundle over the sphere with euler number -1, presented with "
            "(g,p,b)=(2,0,2) and k1=1: linking matrix y equals [[0,-1],[-1,-1]]",
        ],
        "bases": {
            "curves": "e_1..e_n in H_1 of the surface, n = 2g+b-1",
            "arcs": "dual classes f_1..f_n in H_1 rel boundary, <f_i, e_j> = delta_ij",
        },
    }


def _sig_json(sig: SurfaceSignature) -> dict:
    return {
        "g": sig.g, "p": sig.p, "b": sig.b,
        "n": sig.n, "l": sig.l,
        "curves_per_family": sig.curves_per_family,
    }


def _form_json(form) -> dict:
    return {
        "generators_gamma_coordinates": [list(g) for g in form.generators],
        "matrix": form.matrix.to_rows(),
        "torsion_invariant_factors": list(form.torsion),
    }


def _w2_json(w) -> dict:
    return {
        "basis": w.basis,
        "coefficients": list(w.coefficients),
        "linking_diagonal": list(w.linking.diagonal()),
    }


def _spin_json(s) -> dict:
    return {
        "spin": s.spin,
        "witness": list(s.witness) if s.witness is not None else None,
        "witness_basis": s.basis,
    }


_NO_CLASSES = "matrix mode carries no curve classes"
_NEEDS_CLASSES = "this operation needs curve classes; the file is matrix mode"


def _skip(reason: str) -> dict:
    return {"skipped": reason}


def _curves(data: Diagram | DiagramMatrices) -> Diagram:
    """The diagram, for routes that need curve classes."""
    if isinstance(data, DiagramMatrices):
        raise PreconditionError(_NO_CLASSES)
    return data


# each route of the routed sections, as a function of the diagram; what
# several sections read of one route is computed once, on the diagram
_ROUTES = {
    "homology": {
        "y": lambda d: _homology_json(homology_of(build_cy(d))),
        "z": lambda d: _homology_json(homology_of(build_cz(d))),
        "closed": lambda d: _homology_json(h_closed_forms(d)),
    },
    "linking": {
        "y": lambda d: linking_matrix_y(d).to_rows(),
        "z": lambda d: linking_matrix_z(_curves(d)).to_rows(),
    },
    "w2": {
        "y": lambda d: _w2_json(w2_y(d)),
        "z": lambda d: _w2_json(w2_z(_curves(d))),
    },
    "spin": {
        "y": lambda d: _spin_json(spin_y(d)),
        "z": lambda d: _spin_json(spin_z(_curves(d))),
    },
}

# the report sections each command prints; report prints all of them
_PROJECTIONS = {
    "validate": ("mode", "signature", "validation", "k1", "inferred_k"),
    "homology": ("homology", "inferred_k"),
    "form": ("intersection_form",),
    "w2": ("w2",),
    "spin": ("spin",),
    "report": ("mode", "signature", "conventions", "validation", "k1", "inferred_k",
               "homology", "intersection_form", "linking", "w2", "spin"),
}


def _routes_json(section: str, data, routes: Sequence[str], named: bool) -> dict:
    """The section's result by each of the routes it has among routes.

    A route whose precondition fails is marked skipped with the reason,
    unless it was asked for by name; then the failure propagates. Homology
    by several routes also says whether they agree; homology or spin
    routes that disagree add an internal_error.
    """
    out: dict[str, Any] = {}
    for name in routes:
        if name not in _ROUTES[section]:
            continue
        try:
            out[name] = _ROUTES[section][name](data)
        except PreconditionError as e:
            if named:
                raise
            out[name] = _skip(str(e))
    if section == "homology" and len(routes) > 1:
        done = [r for r in out.values() if "skipped" not in r]
        out["agree"] = all(r == done[0] for r in done)
        if not out["agree"]:
            out["internal_error"] = "homology methods disagree; this is a bug"
    if section == "spin" and len({r["spin"] for r in out.values() if "skipped" not in r}) > 1:
        out["internal_error"] = "spin verdicts of the y and z routes disagree; this is a bug"
    return out


def build_report(
    data: Diagram | DiagramMatrices,
    command: str = "report",
    complex_choice: str = "all",
) -> tuple[int, dict]:
    """Exit code and payload of one command: its sections of the report.

    The report holds everything computable for this diagram, with
    unavailable sections and routes marked skipped with a reason. validate
    and report show a failing validation in the payload and exit 1; a
    section that carries an internal_error makes the exit code 4. The
    other commands compute only their own sections, and only the routes
    --complex names; they raise DiagramError on a failing validation and
    PreconditionError when the diagram cannot give what they print.
    """
    shown = _PROJECTIONS[command]
    matrix = isinstance(data, DiagramMatrices)
    if command in ("w2", "spin") and complex_choice == "closed":
        raise PreconditionError("w2/spin have no closed-form route; use --complex y, z, or all")
    if matrix and command in ("homology", "form"):
        raise PreconditionError(_NEEDS_CLASSES)
    named = command in ("homology", "w2", "spin") and complex_choice != "all"
    routes = (complex_choice,) if named else ("y", "z", "closed")

    if "validation" not in shown:
        require_valid(data)
    rep: dict[str, Any] = {}

    def put(section: str, value: Callable[[], Any]) -> None:
        if section in shown:
            rep[section] = value()

    put("mode", lambda: "matrix" if matrix else "class")
    put("signature", lambda: _sig_json(data.sig))
    put("conventions", lambda: _conventions_json(data.sig))
    put("validation", lambda: _validation_json(data.validation))
    if matrix:
        put("k1", lambda: data.k1)
    if not data.validation.ok:
        return 1, rep
    if matrix:
        if named and complex_choice == "z":
            raise PreconditionError(_NO_CLASSES + "; the z route needs class mode")
        put("homology", lambda: _skip(_NO_CLASSES))
        put("intersection_form", lambda: _skip(_NO_CLASSES))
    else:
        put("inferred_k", lambda: list(infer_k(data)))
        put("homology", lambda: _routes_json("homology", data, routes, named))
        put("intersection_form", lambda: _form_json(intersection_form(data)))
    for section in ("linking", "w2", "spin"):
        put(section, lambda: _routes_json(section, data, routes, named))
    failed = any(isinstance(v, dict) and "internal_error" in v for v in rep.values())
    return (4 if failed else 0), rep


def run(
    command: str,
    path: str,
    complex_choice: str = "all",
    fmt: str = "text",
    assert_standard: bool = False,
) -> tuple[int, str]:
    """Execute one command; returns (exit_code, rendered output)."""
    try:
        data = parse(path, assert_standard)
        if command not in _PROJECTIONS:
            raise ParseError(f"unknown command {command!r}")
        code, payload = build_report(data, command, complex_choice)
        return code, _render({"command": command, **payload}, fmt)
    except ParseError as e:
        return 2, _render_error("parse error", str(e), fmt)
    except DiagramError as e:
        return 1, _render_error("rejected", str(e), fmt)
    except PreconditionError as e:
        return 3, _render_error("precondition", str(e), fmt)
    except Exception as e:
        return 4, _render_error("internal", f"{type(e).__name__}: {e}", fmt)


def _render_error(kind: str, message: str, fmt: str) -> str:
    if fmt == "json":
        return _json({"error": {"kind": kind, "message": message}})
    return f"error ({kind}): {message}\n"


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(payload)
    lines: list[str] = []
    _render_text(payload, lines, indent=0)
    return "\n".join(lines) + "\n"


def _json(value: Any) -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) writes it, plus a
    newline. With indent set, json.dumps runs the pure-Python encoder, which
    is slower and whose closures leave reference cycles for the cyclic GC."""
    out: list[str] = []
    _write_json(value, out, "\n")
    return "".join(out) + "\n"


def _write_json(value: Any, out: list[str], newline: str) -> None:
    # newline is a line break followed by the indentation of value's line;
    # ints, most of a report's scalars, come first (type() leaves out bool)
    inner = newline + "  "
    if type(value) is int:
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        sep = "{" + inner
        for k in sorted(value):
            out.append(sep + json.dumps(k) + ": ")
            _write_json(value[k], out, inner)
            sep = "," + inner
        out.append(newline + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]" if value else "[]")
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    else:
        out.append(json.dumps(value))


def _render_text(value: Any, lines: list[str], indent: int, key: str | None = None) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if key is not None:
            lines.append(f"{pad}{key}:")
            indent += 1
            pad += "  "
        for k in sorted(value):
            _render_text(value[k], lines, indent, k)
        return
    if isinstance(value, list) and value and not all(isinstance(x, int) for x in value):
        lines.append(f"{pad}{key}:" if key is not None else pad)
        for item in value:
            if isinstance(item, dict):
                lines.append(f"{pad}  -")
                for k in sorted(item):
                    _render_text(item[k], lines, indent + 2, k)
            else:
                lines.append(f"{pad}  {item}")
        return
    label = f"{key}: " if key is not None else ""
    lines.append(f"{pad}{label}{value}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="trihom",
        description="Homology, intersection form, w2 and spin existence of a "
        "compact 4-manifold with boundary, from a relative trisection diagram file.",
    )
    parser.add_argument("command", choices=list(_PROJECTIONS))
    parser.add_argument("file", help="diagram file (JSON; schema in the README)")
    parser.add_argument(
        "--complex",
        dest="complex_choice",
        choices=["y", "z", "closed", "all"],
        default="all",
        help="which computation route (default: all available)",
    )
    parser.add_argument(
        "--format", dest="fmt", choices=["text", "json"], default="text"
    )
    parser.add_argument(
        "--assert-standard-position",
        action="store_true",
        help="assert that the alpha/beta pair and the supplied arcs are in "
        "standard position, unlocking the y route for class-mode files",
    )
    args = parser.parse_args(argv)
    code, output = run(
        args.command,
        args.file,
        complex_choice=args.complex_choice,
        fmt=args.fmt,
        assert_standard=args.assert_standard_position,
    )
    stream = sys.stdout if code == 0 else sys.stderr
    stream.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
