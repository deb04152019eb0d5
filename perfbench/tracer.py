"""Outside-in tracer: spans around trihom's public functions.

The program itself stays untouched. ``Tracer.install`` replaces each listed
function at every binding it has across the loaded ``trihom`` modules
(``from .x import y`` copies included) with a wrapper that records one span
(name, start, end, parent, op id); ``uninstall`` puts the originals back.
Spans stay in memory; ``derive`` turns them into per-layer metrics after
the run, and ``dump`` writes them out.

A listed name that the program no longer has is skipped; a metric whose
names are all missing is reported as absent rather than as zero.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

# Wrapped functions per layer; "Class.method" wraps a method on the class.
TARGETS = {
    "cli": ("run", "parse"),
    "surface": (
        "validate", "require_valid", "validate_matrices",
        "intersection_number", "q_matrix", "to_relative",
        "s_matrix", "j_matrix", "r_matrix",
        "l_lattice", "l_partial_lattice", "infer_k",
    ),
    "homology": (
        "build_cy", "build_cz", "homology_of", "h_closed_forms",
        "intersection_form", "phi",
    ),
    "charclass": ("linking_matrix_y", "linking_matrix_z", "w2_y", "w2_z", "spin_y", "spin_z"),
    "exactalg": (
        # intersection_form calls the private SNF core directly, so it is
        # wrapped too, or that SNF time would land in the homology layer
        "snf", "_snf_with_inverses", "is_unimodular", "kernel_basis", "solve_integer",
        "hermite_column_form",
        "lattice_intersect", "lattice_sum", "quotient_presentation", "orthogonal_complement",
        "IntMatrix.mul", "solve_mod2",
    ),
}


def _q(layer: str, *names: str) -> frozenset[str]:
    return frozenset(f"{layer}.{n}" for n in names)


SNF = _q("exactalg", "snf", "_snf_with_inverses", "is_unimodular", "kernel_basis", "solve_integer")
PAIRING = _q("surface", "q_matrix", "intersection_number", "to_relative")
CONVENTIONS = _q("surface", "s_matrix", "j_matrix", "r_matrix")
VALIDATE = _q("surface", "validate", "require_valid", "validate_matrices")
LATTICE = _q("exactalg", "lattice_intersect", "lattice_sum", "quotient_presentation",
             "orthogonal_complement")
W2_SPIN = _q("charclass", "w2_y", "w2_z", "spin_y", "spin_z")

# metric -> (kind, span names, unit). Kinds: "self" sums self time,
# "layer" sums the self time of every span of the named layer, "incl" sums
# the duration of outermost spans (no ancestor in the set), "calls" counts
# outermost spans. Times and counts are per pass. homology_of spans are
# named by route ("homology.homology_of.y"), from the complex they get.
METRICS = {
    "cli.parse_s": ("incl", _q("cli", "parse"), "s"),
    "cli.self_s": ("self", _q("cli", "run"), "s"),
    "surface.validate_calls": ("calls", _q("surface", "validate"), "count"),
    "surface.validate_s": ("self", VALIDATE, "s"),
    "surface.pairing_calls": ("calls", _q("surface", "intersection_number"), "count"),
    "surface.pairing_s": ("self", PAIRING, "s"),
    "surface.convention_matrix_calls": ("calls", CONVENTIONS, "count"),
    "surface.convention_matrix_s": ("self", CONVENTIONS, "s"),
    "surface.lattice_build_calls": ("calls", _q("surface", "l_lattice", "l_partial_lattice"), "count"),
    "surface.infer_k_calls": ("calls", _q("surface", "infer_k"), "count"),
    "surface.self_s": ("layer", _q("surface", *TARGETS["surface"]), "s"),
    "homology.route_y_s": ("incl", _q("homology", "build_cy", "homology_of.y"), "s"),
    "homology.route_z_s": ("incl", _q("homology", "build_cz", "homology_of.z"), "s"),
    "homology.route_closed_s": ("incl", _q("homology", "h_closed_forms"), "s"),
    "homology.form_s": ("incl", _q("homology", "intersection_form"), "s"),
    "homology.self_s": ("layer", _q("homology", *TARGETS["homology"]), "s"),
    "charclass.linking_y_s": ("incl", _q("charclass", "linking_matrix_y"), "s"),
    "charclass.linking_z_s": ("incl", _q("charclass", "linking_matrix_z"), "s"),
    "charclass.w2_spin_s": ("incl", W2_SPIN, "s"),
    "charclass.self_s": ("layer", _q("charclass", *TARGETS["charclass"]), "s"),
    "exactalg.snf_calls": ("calls", SNF, "count"),
    "exactalg.snf_s": ("self", SNF, "s"),
    "exactalg.solve_calls": ("calls", _q("exactalg", "solve_integer"), "count"),
    "exactalg.hnf_calls": ("calls", _q("exactalg", "hermite_column_form"), "count"),
    "exactalg.hnf_s": ("self", _q("exactalg", "hermite_column_form"), "s"),
    "exactalg.lattice_calls": ("calls", LATTICE, "count"),
    "exactalg.lattice_s": ("self", LATTICE, "s"),
    "exactalg.matmul_calls": ("calls", _q("exactalg", "IntMatrix.mul"), "count"),
    "exactalg.matmul_s": ("self", _q("exactalg", "IntMatrix.mul"), "s"),
    "exactalg.mod2_s": ("self", _q("exactalg", "solve_mod2"), "s"),
    "exactalg.self_s": ("layer", _q("exactalg", *TARGETS["exactalg"]), "s"),
}

# These partition the time covered by spans: cli.parse_s is inclusive, but
# parse calls no other wrapped function.
LAYER_SELF = ("cli.parse_s", "cli.self_s", "surface.self_s", "homology.self_s",
              "charclass.self_s", "exactalg.self_s")


def _function(span_name: str) -> str:
    """The wrapped function behind a span name."""
    return span_name.rpartition(".")[0] if span_name.startswith("homology.homology_of.") else span_name


def _bits(value) -> int:
    """Largest entry bit-length inside an exactalg argument or result."""
    if isinstance(value, int):
        return value.bit_length()
    entries = getattr(value, "entries", None)  # IntMatrix
    if entries is not None:
        return max(map(int.bit_length, entries), default=0)
    basis = getattr(value, "basis", None)  # Lattice
    if basis is not None:
        return _bits(basis)
    if isinstance(value, (tuple, list)):
        return max(map(_bits, value), default=0)
    fields = getattr(value, "__dataclass_fields__", None)  # SmithDecomposition, AbelianGroup
    if fields is not None:
        return max((_bits(getattr(value, f)) for f in fields), default=0)
    return 0


def _trihom_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "trihom" or name.startswith("trihom."))]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # span name by id
        self._name_ids: dict[str, int] = {}
        # (name id, start ns, end ns, parent index or -1, op id)
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.op = -1  # id of the op in progress; spans of one op share it
        self.peak_io_bits = 0
        self.wrapped: set[str] = set()  # "layer.name" that were found
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []  # (owner, attr, original)

    # -- install / uninstall -------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, span_name: str, orig, io_bits: bool):
        spans, stack, name_id = self.spans, self._stack, self._name_id(span_name)
        tracer = self
        label_by_source = span_name == "homology.homology_of"

        def wrapper(*args, **kwargs):
            nid = name_id
            if label_by_source:
                # route split: homology_of runs once per complex; the
                # complex records which route built it
                source = getattr(args[0] if args else None, "source", None)
                nid = tracer._name_id(f"homology.homology_of.{source}")
            if io_bits:
                tracer.peak_io_bits = max(tracer.peak_io_bits, _bits(args),
                                          _bits(tuple(kwargs.values())))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, tracer.op)
            if io_bits:
                tracer.peak_io_bits = max(tracer.peak_io_bits, _bits(result))
            return result

        return functools.update_wrapper(wrapper, orig)

    def install(self) -> None:
        modules = _trihom_modules()
        by_layer = {m.__name__.rpartition(".")[2]: m for m in modules}
        for layer, names in TARGETS.items():
            home = by_layer.get(layer)
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                orig = getattr(owner, attr, None) if owner is not None else None
                if orig is None:
                    continue  # removed by a refactor: its metrics go absent
                self.wrapped.add(f"{layer}.{name}")
                wrapper = self._wrap(f"{layer}.{name}", orig, layer == "exactalg")
                if owner_name:
                    self._patch(owner, attr, orig, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, attr: str, orig, wrapper) -> None:
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def covered_ns(self) -> int:
        """Total duration of top-level spans."""
        return sum(s[2] - s[1] for s in self.spans if s is not None and s[3] < 0)

    def derive(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per pass, from the recorded spans."""
        spans = [s for s in self.spans if s is not None]
        if len(spans) != len(self.spans):
            raise RuntimeError("derive() called while a span is still open")
        child_ns = [0] * len(spans)
        for nid, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        self_by_name = [0] * len(self.names)
        for i, (nid, t0, t1, _, _) in enumerate(spans):
            self_by_name[nid] += t1 - t0 - child_ns[i]

        out: dict[str, tuple[float, str]] = {}
        for metric, (kind, names, unit) in METRICS.items():
            if not any(_function(n) in self.wrapped for n in names):
                continue
            if kind == "layer":
                layer = metric.partition(".")[0] + "."
                names = {n for n in self.names if n.startswith(layer)}
            ids = {self._name_ids[n] for n in names if n in self._name_ids}
            if kind in ("self", "layer"):
                value = sum(self_by_name[i] for i in ids) / 1e9
            else:
                inside = [False] * len(spans)  # has an ancestor in the set
                total = 0
                for i, (nid, t0, t1, parent, _) in enumerate(spans):
                    if parent >= 0:
                        inside[i] = inside[parent] or spans[parent][0] in ids
                    if nid in ids and not inside[i]:
                        total += 1 if kind == "calls" else t1 - t0
                value = total if kind == "calls" else total / 1e9
            out[metric] = (value / passes, unit)
        if any(n.startswith("exactalg.") for n in self.wrapped):
            out["exactalg.peak_io_bits"] = (self.peak_io_bits, "bits")
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: a header with names, then one span a line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start_ns", "end_ns", "parent", "op"]}) + "\n")
            for s in self.spans:
                fh.write("[%d, %d, %d, %d, %d]\n" % s)
