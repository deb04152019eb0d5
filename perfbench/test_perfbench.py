"""Self-tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from trihom import charclass, cli, exactalg, homology, surface  # noqa: E402
from workload import run_pass  # noqa: E402

MODULES = (sys.modules["trihom"], cli, surface, homology, charclass, exactalg)


def _files(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path: Path, workload: str) -> None:
    a, b, c = (tmp_path / x for x in "abc")
    for d in (a, b, c):
        d.mkdir()
    ops_a = gen.generate(workload, 7, a)
    ops_b = gen.generate(workload, 7, b)
    gen.generate(workload, 8, c)
    assert _files(a) == _files(b)
    assert [op.op_id for op in ops_a] == [op.op_id for op in ops_b]
    assert _files(a) != _files(c)


def _small_ops(tmp_path: Path):
    ops = gen.generate("corpus-mix", 3, tmp_path)
    return [op for op in ops if "g5" not in op.op_id]  # keep the test quick


def _bindings() -> dict[tuple[str, str], object]:
    out = {}
    for mod in MODULES:
        for key, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, key)] = value
    out[("IntMatrix", "mul")] = exactalg.IntMatrix.__dict__["mul"]
    return out


def test_uninstall_restores_every_binding() -> None:
    before = _bindings()
    t = tracer_mod.Tracer()
    with t:
        assert cli.validate is not before[("trihom.surface", "validate")]
        assert surface.validate is cli.validate  # one wrapper per function
        assert exactalg.IntMatrix.__dict__["mul"] is not before[("IntMatrix", "mul")]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed
    wanted = {f"{layer}.{name}" for layer, names in tracer_mod.TARGETS.items() for name in names}
    assert t.wrapped == wanted


def test_tracing_does_not_change_outputs(tmp_path: Path) -> None:
    ops = _small_ops(tmp_path)
    _, _, plain = run_pass(cli, ops)
    t = tracer_mod.Tracer()
    with t:
        _, _, traced = run_pass(cli, ops, t)
    assert traced == plain
    assert t.spans


def test_layer_self_times_sum_to_pass_time(tmp_path: Path) -> None:
    ops = _small_ops(tmp_path)
    t = tracer_mod.Tracer()
    with t:
        wall, _, _ = run_pass(cli, ops, t)
    derived = t.derive(passes=1)
    uncovered = wall - t.covered_ns() / 1e9
    layer_sum = sum(derived[k][0] for k in tracer_mod.LAYER_SELF)
    assert 0 <= uncovered < 0.05 * wall
    assert layer_sum + uncovered == pytest.approx(wall, abs=1e-6)
    for metric in tracer_mod.METRICS:
        assert metric in derived


def test_missing_function_leaves_its_metric_absent(tmp_path: Path, monkeypatch) -> None:
    targets = dict(tracer_mod.TARGETS)
    targets["surface"] = tuple(n for n in targets["surface"] if n != "intersection_number")
    targets["surface"] += ("renamed_away",)
    monkeypatch.setattr(tracer_mod, "TARGETS", targets)
    t = tracer_mod.Tracer()
    with t:
        run_pass(cli, _small_ops(tmp_path)[:7], t)
    derived = t.derive(passes=1)
    assert "surface.renamed_away" not in t.wrapped
    assert "surface.pairing_calls" not in derived
    assert derived["surface.pairing_s"][0] > 0  # q_matrix and to_relative remain


@pytest.mark.parametrize("rows, expect", [
    ([], (0, 1, 0)),  # the empty form is unimodular
    ([[1, 0], [0, -1]], (2, 1, 0)),
    ([[0, 1], [1, 0]], (2, 1, 0)),
    ([[2, 1], [1, 2]], (2, 3, 2)),
    ([[0, 0], [0, 0]], (0, 0, 0)),
    ([[1, 1], [1, 1]], (1, 0, 1)),
    ([[0, 2, 0], [2, 0, 0], [0, 0, -3]], (3, 12, -1)),
])
def test_signature(rows, expect) -> None:
    assert check.signature(rows) == expect


def test_moves_keep_pairings() -> None:
    import random
    rng = random.Random(5)
    d = gen.standard_diagram(rng, 4, 2)
    fams = ("alpha", "beta", "gamma")
    def pairings():
        return [[gen.pairing(4, x, y) for y in d[h]] for f in fams for h in fams for x in d[f]]

    before = pairings()
    arcs_before = [[sum(a * x for a, x in zip(arc, c)) for c in d["gamma"]] for arc in d["arcs"]]
    for _ in range(20):
        gen.transvect(d, rng)
    after = pairings()
    arcs_after = [[sum(a * x for a, x in zip(arc, c)) for c in d["gamma"]] for arc in d["arcs"]]
    assert before == after
    assert arcs_before == arcs_after


def test_benchmark_json_names_the_workloads() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(tracer_mod.METRICS) < per_layer


def test_reference_work_computes_a_determinant() -> None:
    from fractions import Fraction

    m = [[Fraction(x) for x in row] for row in speed._MATRIX]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next(i for i in range(k, len(m)) if m[i][k])
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    assert speed._DET == det != 0
    assert speed.factor_of([speed.reference()]) > 0
