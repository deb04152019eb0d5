"""Input parsing, exit codes, and report output of the command line tool."""

import dataclasses
import functools
import gc
import json
import weakref
from pathlib import Path

import pytest

from corpus import corpus, slide
from trihom import cli, exactalg, homology, surface
from trihom.cli import ParseError, main, parse, parse_obj, run
from trihom.exactalg import AbelianGroup, IntMatrix
from trihom.homology import HomologyResult
from trihom.surface import Diagram, DiagramMatrices, SurfaceSignature

FIXTURES = Path(__file__).parent / "fixtures"
CLASS_FIXTURE = str(FIXTURES / "punctured_cp2bar.json")
MATRIX_FIXTURE = str(FIXTURES / "disk_bundle_euler_minus_one.json")
STANDARD_FIXTURE = str(FIXTURES / "two_handle_standard.json")


def write_json(tmp_path: Path, obj) -> str:
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(obj))
    return str(path)


def class_payload(**overrides):
    payload = {
        "mode": "class",
        "g": 1,
        "p": 0,
        "b": 1,
        "alpha": [[1, 0]],
        "beta": [[0, 1]],
        "gamma": [[1, 1]],
    }
    payload.update(overrides)
    return payload


def corpus_diagram(name: str) -> Diagram:
    return next(e.diagram for e in corpus() if e.name == name)


def write_diagram(tmp_path: Path, d: Diagram) -> str:
    """d as a class-mode file under the standard-position assertion."""
    return write_json(tmp_path, class_payload(
        g=d.sig.g, p=d.sig.p, b=d.sig.b,
        alpha=[list(c) for c in d.alpha],
        beta=[list(c) for c in d.beta],
        gamma=[list(c) for c in d.gamma],
        arcs=[list(d.arcs.column(j)) for j in range(d.arcs.cols)],
        standard_position_assertion=True,
    ))


class TestParsing:
    def test_parse_keeps_every_field_class_mode(self) -> None:
        want = Diagram.build(
            2, 0, 2,
            alpha=[[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]],
            beta=[[0, 1, 0, 0, 0], [0, 0, 0, 1, 0]],
            gamma=[[1, 1, 0, 0, 0], [0, 0, 1, 1, 0]],
            arcs=[[0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                  [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]],
            standard_position=True,
        )
        assert parse(STANDARD_FIXTURE) == want
        payload = class_payload(k=[1, 1, 1])
        assert parse_obj(payload) == Diagram.build(
            1, 0, 1, alpha=[[1, 0]], beta=[[0, 1]], gamma=[[1, 1]], k=(1, 1, 1)
        )
        asserted = parse_obj(payload, assert_standard=True)
        assert asserted.standard_position and asserted.k == (1, 1, 1)

    def test_parse_keeps_every_field_matrix_mode(self) -> None:
        assert parse(MATRIX_FIXTURE) == DiagramMatrices(
            sig=SurfaceSignature(2, 0, 2),
            k1=1,
            q_gamma_beta=IntMatrix.from_rows([[1, 0], [0, -1]]),
            q_alpha_gamma=IntMatrix.from_rows([[0, -1], [1, 1]]),
            q_a_gamma=IntMatrix.from_rows([[1, 0]]),
            q_beta_alpha=IntMatrix.from_rows([[1, 0], [0, 1]]),
        )

    def test_wrong_vector_length_names_the_field(self) -> None:
        with pytest.raises(ParseError, match=r"alpha\[0\]: expected length 2, got 3"):
            parse_obj(class_payload(alpha=[[1, 0, 0]]))

    def test_missing_field(self) -> None:
        payload = class_payload()
        del payload["gamma"]
        with pytest.raises(ParseError, match="missing field 'gamma'"):
            parse_obj(payload)

    def test_non_integer_entry(self) -> None:
        with pytest.raises(ParseError, match=r"alpha\[0\]\[0\]: expected an integer"):
            parse_obj(class_payload(alpha=[[1.5, 0]]))

    def test_boolean_is_not_an_integer(self) -> None:
        with pytest.raises(ParseError, match="g: expected an integer, got True"):
            parse_obj(class_payload(g=True))

    def test_unexpected_field(self) -> None:
        with pytest.raises(ParseError, match="unexpected field 'extra'"):
            parse_obj(class_payload(extra=1))

    def test_matrix_fields_rejected_in_class_mode(self) -> None:
        with pytest.raises(ParseError, match="unexpected field 'k1'"):
            parse_obj(class_payload(k1=1))

    def test_unknown_mode(self) -> None:
        with pytest.raises(ParseError, match="mode"):
            parse_obj(class_payload(mode="curves"))

    def test_arc_count_must_match_rank(self) -> None:
        with pytest.raises(ParseError, match="arcs"):
            parse_obj(class_payload(arcs=[[1, 0]]))

    def test_matrix_mode_shape_check(self) -> None:
        payload = {
            "mode": "matrix",
            "g": 2,
            "p": 0,
            "b": 2,
            "k1": 1,
            "Q_gamma_beta": [[1, 0], [0, -1]],
            "Q_alpha_gamma": [[0, -1], [1, 1]],
            "Q_a_gamma": [[1, 0], [0, 1]],
            "Q_beta_alpha": [[1, 0], [0, 1]],
        }
        with pytest.raises(ParseError, match="Q_a_gamma"):
            parse_obj(payload)

    def test_invalid_signature_is_a_parse_error(self) -> None:
        with pytest.raises(ParseError):
            parse_obj(class_payload(p=2))


class TestExitCodes:
    def test_parse_failures_exit_two(self, tmp_path: Path) -> None:
        bad = tmp_path / "bad.json"
        bad.write_text('{"mode": ')
        code, out = run("validate", str(bad))
        assert code == 2
        assert "line 1" in out

        code, out = run("validate", write_json(tmp_path, class_payload(alpha=[[1, 0, 0]])))
        assert code == 2
        assert "alpha[0]" in out

    def test_overlong_input_integer_exits_two(self, tmp_path: Path) -> None:
        # json.loads refuses an int of more than 4300 digits with a plain ValueError
        path = tmp_path / "long.json"
        long_int = "7" * 5000
        path.write_text(json.dumps(class_payload()).replace("[[0, 1]]", f"[[{long_int}, 1]]"))
        code, out = run("report", str(path))
        assert code == 2
        assert out.startswith(f"error (parse error): {path}: ")
        code, out = run("report", str(path), fmt="json")
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "parse error"

    def test_unprintable_result_exits_four(self, tmp_path: Path) -> None:
        # a valid diagram whose form and linking entries pass 4300 digits,
        # which neither format can print
        x = 10**2200 + 1
        path = write_json(tmp_path, class_payload(beta=[[x, 1]], gamma=[[1, x]]))
        code, out = run("report", path)
        assert code == 4
        assert out.startswith("error (internal): ValueError: ")
        assert "Traceback" not in out
        code, out = run("report", path, fmt="json")
        assert code == 4
        error = json.loads(out)["error"]
        assert error["kind"] == "internal" and error["message"].startswith("ValueError: ")

    def test_missing_file_exits_two(self) -> None:
        code, _ = run("validate", "/nonexistent/diagram.json")
        assert code == 2

    def test_validation_failure_exits_one(self, tmp_path: Path) -> None:
        crossing = write_json(
            tmp_path,
            {
                "mode": "class",
                "g": 2,
                "p": 0,
                "b": 1,
                "alpha": [[1, 0, 0, 0], [0, 1, 0, 0]],
                "beta": [[0, 1, 0, 0], [0, 0, 1, 0]],
                "gamma": [[1, 2, 0, 0], [0, 0, 1, 0]],
            },
        )
        code, out = run("validate", crossing)
        assert code == 1
        assert "intra_family_disjoint" in out

    def test_matrix_mode_checks_supplied_k(self, tmp_path: Path) -> None:
        fixture = json.loads(Path(MATRIX_FIXTURE).read_text())
        # k_1 must equal k1 = 1 and every k_i sit in [l, g+p+b-1] = [1, 3]
        for k in ([9, 9, 9], [2, 1, 1], [1, 0, 3]):
            path = write_json(tmp_path, {**fixture, "k": k})
            for command in ("validate", "report"):
                code, out = run(command, path, fmt="json")
                assert code == 1, (k, command)
                checks = json.loads(out)["validation"]["checks"]
                assert [c["name"] for c in checks if not c["passed"]] == ["k_matches_supplied"]
            code, out = run("w2", path)
            assert code == 1 and "k_matches_supplied" in out
        path = write_json(tmp_path, {**fixture, "k": [1, 3, 2]})
        code, out = run("validate", path, fmt="json")
        assert code == 0
        assert json.loads(out)["validation"]["checks"][-1] == {
            "name": "k_matches_supplied",
            "passed": True,
            "detail": "supplied k=(1, 3, 2) needs k_1 = k1=1 and every entry in [1, 3]",
        }
        assert run("report", path)[0] == 0

    def test_matrix_mode_takes_the_shared_curves_first(self, tmp_path: Path) -> None:
        fixture = json.loads(Path(MATRIX_FIXTURE).read_text())
        # with k1 = 2 and l = 1, alpha curve 0 is the one shared with beta, so
        # column 0 of Q_beta_alpha must vanish; both matrices have rank 1
        path = write_json(tmp_path, {**fixture, "k1": 2, "Q_beta_alpha": [[1, 0], [0, 0]]})
        for command in ("validate", "report"):
            code, out = run(command, path, fmt="json")
            assert code == 1, command
            failed = [c for c in json.loads(out)["validation"]["checks"] if not c["passed"]]
            assert [c["name"] for c in failed] == ["q_beta_alpha_rank"]
            assert failed[0]["detail"].startswith("alpha curves [0] pair nonzero with beta")
        path = write_json(tmp_path, {**fixture, "k1": 2, "Q_beta_alpha": [[0, 0], [0, 1]]})
        code, out = run("validate", path, fmt="json")
        assert code == 0
        checks = {c["name"]: c["detail"] for c in json.loads(out)["validation"]["checks"]}
        assert checks["q_beta_alpha_rank"] == "rank 1 within bound 1"

    def test_curve_commands_unavailable_in_matrix_mode(self) -> None:
        assert run("homology", MATRIX_FIXTURE)[0] == 3
        assert run("form", MATRIX_FIXTURE)[0] == 3
        assert run("w2", MATRIX_FIXTURE, complex_choice="z")[0] == 3

    def test_matrix_mode_w2_defaults_to_available_route(self) -> None:
        assert run("w2", MATRIX_FIXTURE)[0] == 0
        assert run("spin", MATRIX_FIXTURE)[0] == 0

    def test_characteristic_commands_reject_closed_route(self) -> None:
        assert run("w2", CLASS_FIXTURE, complex_choice="closed")[0] == 3
        assert run("spin", CLASS_FIXTURE, complex_choice="closed")[0] == 3

    def test_explicit_y_route_needs_assertion(self) -> None:
        code, out = run("w2", CLASS_FIXTURE, complex_choice="y")
        assert code == 3
        assert "standard-position" in out

    def test_assert_flag_unlocks_y_route(self) -> None:
        code, _ = run("w2", CLASS_FIXTURE, complex_choice="y", assert_standard=True)
        assert code == 0


class TestCommands:
    def test_validate_reports_inferred_k(self) -> None:
        code, out = run("validate", CLASS_FIXTURE, fmt="json")
        assert code == 0
        assert json.loads(out)["inferred_k"] == [0, 0, 0]

    def test_homology_all_routes_agree(self) -> None:
        code, out = run("homology", CLASS_FIXTURE, fmt="json")
        assert code == 0
        payload = json.loads(out)
        assert payload["homology"]["agree"] is True
        assert payload["homology"]["z"]["h2"]["pretty"] == "Z"

    def test_homology_single_route(self) -> None:
        code, out = run("homology", CLASS_FIXTURE, complex_choice="y", fmt="json")
        assert code == 0
        payload = json.loads(out)
        assert "y" in payload["homology"]
        assert "z" not in payload["homology"]

    def test_form_output(self) -> None:
        code, out = run("form", CLASS_FIXTURE, fmt="json")
        assert code == 0
        form = json.loads(out)["intersection_form"]
        assert form["matrix"] == [[-1]]
        assert form["torsion_invariant_factors"] == []

    def test_w2_both_routes_on_standard_fixture(self) -> None:
        code, out = run("w2", STANDARD_FIXTURE, fmt="json")
        assert code == 0
        w2 = json.loads(out)["w2"]
        assert w2["y"]["coefficients"] == [1, 1]
        assert w2["z"]["coefficients"] == [0, 0, 0, 0, 1, 1]

    def test_spin_verdicts_agree_on_standard_fixture(self) -> None:
        code, out = run("spin", STANDARD_FIXTURE, fmt="json")
        assert code == 0
        spin = json.loads(out)["spin"]
        assert spin["y"]["spin"] is False
        assert spin["z"]["spin"] is False


class TestUnsaturatedAlphaBeta:
    """L_alpha + L_beta of index 2: the y homology route does not apply."""

    @pytest.fixture
    def path(self, tmp_path: Path) -> str:
        return write_json(tmp_path, class_payload(beta=[[1, 2]], gamma=[[0, 1]]))

    def test_all_routes_skip_y(self, path: str) -> None:
        code, out = run("homology", path, fmt="json")
        assert code == 0
        hom = json.loads(out)["homology"]
        assert "not saturated" in hom["y"]["skipped"]
        assert hom["agree"] is True
        assert "internal_error" not in hom

    def test_every_command_matches_the_report(self, path: str) -> None:
        report = json.loads(run("report", path, fmt="json")[1])
        for command in ("homology", "w2", "spin"):
            code, out = run(command, path, fmt="json")
            assert code == 0
            assert json.loads(out)[command] == report[command]

    def test_named_y_route_exits_three(self, path: str) -> None:
        code, out = run("homology", path, complex_choice="y")
        assert code == 3
        assert "not saturated" in out


class TestReport:
    def test_matrix_mode_goldens(self) -> None:
        code, out = run("report", MATRIX_FIXTURE, fmt="json")
        assert code == 0
        rep = json.loads(out)
        assert rep["linking"]["y"] == [[0, -1], [-1, -1]]
        assert rep["w2"]["y"]["coefficients"] == [0, 1]
        assert rep["spin"]["y"]["spin"] is False
        # curve-level results cannot exist without curve classes
        assert "skipped" in rep["homology"]
        assert "skipped" in rep["intersection_form"]
        assert "skipped" in rep["linking"]["z"]

    def test_class_mode_report(self) -> None:
        code, out = run("report", CLASS_FIXTURE, fmt="json")
        assert code == 0
        rep = json.loads(out)
        assert rep["homology"]["agree"] is True
        assert rep["intersection_form"]["matrix"] == [[-1]]
        assert rep["inferred_k"] == [0, 0, 0]
        assert rep["w2"]["z"]["coefficients"] == [0, 0, 1]
        assert "skipped" in rep["w2"]["y"]

    def test_report_includes_conventions(self) -> None:
        rep = json.loads(run("report", CLASS_FIXTURE, fmt="json")[1])
        conventions = rep["conventions"]
        assert conventions["S"] == [[0, 0], [1, 0]]
        assert conventions["J_equals_St_minus_S"] == [[0, 1], [-1, 0]]
        assert "pairing_curve_curve" in conventions

    def test_disagreement_is_flagged(self, monkeypatch) -> None:
        wrong = AbelianGroup(0)
        monkeypatch.setattr(
            cli, "h_closed_forms",
            lambda d: HomologyResult(wrong, wrong, wrong, wrong, source="closed"),
        )
        for command in ("homology", "report"):
            code, out = run(command, STANDARD_FIXTURE, fmt="json")
            assert code == 4
            hom = json.loads(out)["homology"]
            assert hom["agree"] is False
            assert hom["internal_error"] == "homology methods disagree; this is a bug"

    def test_spin_disagreement_is_flagged(self, monkeypatch, tmp_path: Path) -> None:
        path = write_diagram(tmp_path, corpus_diagram("std-g2b2-mixed"))
        # the unmoved entry's two verdicts agree
        code, out = run("spin", path, fmt="json")
        assert code == 0 and "internal_error" not in json.loads(out)["spin"]
        real_spin_y = cli.spin_y

        def flipped_spin_y(d):
            verdict = real_spin_y(d)
            return dataclasses.replace(verdict, spin=not verdict.spin)

        monkeypatch.setattr(cli, "spin_y", flipped_spin_y)
        for command in ("spin", "report"):
            code, out = run(command, path, fmt="json")
            assert code == 4
            spin = json.loads(out)["spin"]
            assert spin["y"]["spin"] != spin["z"]["spin"]
            assert spin["internal_error"] == (
                "spin verdicts of the y and z routes disagree; this is a bug"
            )
        assert main(["spin", path]) == 4
        # one route alone has nothing to disagree with
        for route in ("y", "z"):
            code, out = run("spin", path, complex_choice=route, fmt="json")
            assert code == 0
            assert "internal_error" not in json.loads(out)["spin"]

    def test_alpha_slides_leave_standard_position(self, tmp_path: Path) -> None:
        # two alpha slides keep both lattice checks of the y route but break
        # the alpha-beta pairing of standard position; the y route refuses
        # the diagram rather than give a spin verdict that differs from z's
        slid = slide(slide(corpus_diagram("std-g2b2-mixed"), "alpha", 0, 1), "alpha", 1, 0)
        refusal = slid.standard_position_refusal
        assert refusal.startswith("the alpha and beta classes do not pair as in standard position")
        path = write_diagram(tmp_path, slid)
        code, out = run("spin", path, complex_choice="y", fmt="json")
        assert code == 3 and refusal in out
        code, out = run("report", path, fmt="json")
        assert code == 0
        spin = json.loads(out)["spin"]
        assert spin["y"] == {"skipped": refusal}
        assert "internal_error" not in spin

    def test_report_analyzes_the_diagram_once(self, monkeypatch, tmp_path: Path) -> None:
        validations = []
        real_validate = surface.validate

        def counting_validate(d):
            validations.append(d)
            return real_validate(d)

        family_matrices = []  # (family, matrix) of every family_matrices build

        solved = []  # the argument of every Hermite solver built for the diagram
        real_hermite_solver = surface.hermite_solver

        def recording_hermite_solver(m):
            solved.append(m)
            return real_hermite_solver(m)

        stacked = []  # every [alpha | beta] made from handed-out family matrices
        real_hstack = IntMatrix.hstack

        def recording_hstack(m, other):
            out = real_hstack(m, other)
            handed_out = {id(fm): f for f, fm in family_matrices}
            if (handed_out.get(id(m)), handed_out.get(id(other))) == ("alpha", "beta"):
                stacked.append(out)
            return out

        factored = []  # (matrix, transforms) of every Smith form
        real_snf = exactalg._snf_with_inverses

        def recording_snf(m, transforms=False):
            factored.append((m, transforms))
            return real_snf(m, transforms)

        relations = []  # (module, numerator, denominator, matrix) of every relation matrix
        real_relation_matrix = exactalg.relation_matrix

        def recording_relation_matrix(module):
            def wrapper(num, den):
                out = real_relation_matrix(num, den)
                relations.append((module, num, den, out))
                return out
            return wrapper

        complements = []  # the argument of every orthogonal complement the diagram takes
        real_complement = surface.orthogonal_complement

        def recording_complement(lat):
            complements.append(lat)
            return real_complement(lat)

        built = []  # (member, object) of every completed build of a cached member

        def recording_member(cls, name):
            real = cls.__dict__[name].func

            def build(obj):
                out = real(obj)
                built.append((name, obj))
                if name == "family_matrices":
                    family_matrices.extend(out.items())
                return out

            member = functools.cached_property(build)
            member.__set_name__(cls, name)
            return member

        monkeypatch.setattr(surface, "validate", counting_validate)
        monkeypatch.setattr(surface, "hermite_solver", recording_hermite_solver)
        monkeypatch.setattr(IntMatrix, "hstack", recording_hstack)
        monkeypatch.setattr(surface, "orthogonal_complement", recording_complement)
        for module in (exactalg, surface):
            monkeypatch.setattr(module, "relation_matrix", recording_relation_matrix(module))
        for module in (exactalg, surface, homology):
            monkeypatch.setattr(module, "_snf_with_inverses", recording_snf)
        members = {
            surface.Diagram: ("family_matrices", "standard_position_refusal", "linking_y",
                              "linking_z", "page_pairing"),
            surface.DiagramMatrices: ("linking_y", "page_pairing"),
        }
        for cls, names in members.items():
            for name in names:
                monkeypatch.setattr(cls, name, recording_member(cls, name))

        # the y route runs on the standard fixture; the class fixture lacks
        # the assertion, and mix-torsion3-b2's arcs fail the arc check
        entry = next(e.diagram for e in corpus() if e.name == "mix-torsion3-b2")
        refused = write_json(tmp_path, class_payload(
            g=entry.sig.g, p=entry.sig.p, b=entry.sig.b,
            alpha=[list(c) for c in entry.alpha],
            beta=[list(c) for c in entry.beta],
            gamma=[list(c) for c in entry.gamma],
        ))
        # the page lattice is one complement, of L_alpha + L_beta; the arc
        # check under the assertion adds one per family it reaches
        cases = ((CLASS_FIXTURE, False, False, 1), (STANDARD_FIXTURE, False, True, 3),
                 (refused, True, False, 2))
        for path, asserted, y_runs, complemented in cases:
            logs = (validations, family_matrices, solved, stacked, factored, relations,
                    complements, built)
            for log in logs:
                log.clear()
            code, out = run("report", path, fmt="json", assert_standard=asserted)
            assert code == 0
            assert ("skipped" in json.loads(out)["linking"]["y"]) is not y_runs
            assert len(validations) == 1
            by_family = {
                name: [m for f, m in family_matrices if f == name]
                for name in ("alpha", "beta", "gamma")
            }
            for family, handed_out in by_family.items():
                # one Hermite form of [A; I] gives the family's span and its solves
                assert sum(s is m for s in solved for m in handed_out) == 1, family
            # [alpha | beta] is split by a Hermite solver, never a Smith form
            assert sum(s is m for s in solved for m in stacked) == 1
            assert not any(f is m for f, _ in factored for m in stacked)
            # every route reads H_1 off a Hermite basis in the standard basis, so the
            # one relation matrix is H_2's, built once for both H_2 and the form
            (module, _, _, h2), = relations
            assert module is surface
            # only that matrix is factored with transforms, for U^-1, and only once
            assert [(f, t) for f, t in factored if t] == [(h2, True)]
            assert sum(f is h2 for f, _ in factored) == 1
            assert len(complements) == complemented
            # the linking, w2 and spin sections and the y complex read one
            # arc check, linking matrix and page pairing off the one diagram,
            # and every route reads the family matrices built once
            assert len({id(d) for _, d in built}) == 1
            want = ["family_matrices", "linking_z", "page_pairing", "standard_position_refusal"]
            assert sorted(name for name, _ in built) == sorted(want + ["linking_y"] * y_runs)

        built.clear()
        assert run("report", MATRIX_FIXTURE, fmt="json")[0] == 0
        assert len({id(d) for _, d in built}) == 1
        assert sorted(name for name, _ in built) == ["linking_y", "page_pairing"]

    def test_report_frees_the_diagram_without_the_cycle_collector(self, monkeypatch) -> None:
        # a reference cycle through a report's diagram (say, a kept exception
        # of a skipped route) would hold all its caches until the cyclic GC runs
        made = []
        real_parse = cli.parse

        def recording_parse(path, assert_standard=False):
            d = real_parse(path, assert_standard)
            made.append(weakref.ref(d))
            return d

        monkeypatch.setattr(cli, "parse", recording_parse)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for path in (CLASS_FIXTURE, STANDARD_FIXTURE):  # y route skipped, then run
                assert run("report", path, fmt="json")[0] == 0
        finally:
            if was_enabled:
                gc.enable()
        assert len(made) == 2
        assert all(ref() is None for ref in made)

    def test_report_is_deterministic(self) -> None:
        for path in (CLASS_FIXTURE, MATRIX_FIXTURE, STANDARD_FIXTURE):
            first = run("report", path, fmt="json")
            second = run("report", path, fmt="json")
            assert first == second


class TestJsonWriter:
    @pytest.mark.parametrize("value", [
        {},
        [],
        {"a": {}, "b": [], "c": [[]], "d": [{}]},
        [[1, -2], [3, [4, [5]]], [[], [[]]]],
        {"t": True, "f": False, "n": None, "list": [True, False, None]},
        [-1, 0, 2**100, -(2**100) + 1],
        [1, True, 0, False],
        (1, (2, "x"), ()),
        {"z": 1, "a": 2, "m": {"y": 0, "b": -7}},
        {"caf\u00e9": "na\u00efve \u2203x", "quote": "a \"b\" \\c\n\td", "ctl": "\x00\x1f"},
        "\ud83d\ude00 plain",
        7,
        None,
    ])
    def test_writes_what_json_dumps_writes(self, value) -> None:
        assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("path", [CLASS_FIXTURE, MATRIX_FIXTURE, str(FIXTURES / "missing.json")])
    def test_json_output_leaves_no_cyclic_garbage(self, path: str) -> None:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            code, _ = run("report", path, fmt="json")
            assert code == (2 if path.endswith("missing.json") else 0)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


class TestMain:
    def test_success_prints_to_stdout(self, capsys) -> None:
        assert main(["validate", CLASS_FIXTURE]) == 0
        captured = capsys.readouterr()
        assert "command: validate" in captured.out
        assert captured.err == ""

    def test_failure_prints_to_stderr(self, capsys) -> None:
        assert main(["homology", MATRIX_FIXTURE]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err != ""

    def test_json_format_flag(self, capsys) -> None:
        assert main(["report", MATRIX_FIXTURE, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "report"

    def test_assert_standard_position_flag(self, capsys) -> None:
        code = main(["w2", CLASS_FIXTURE, "--complex", "y", "--assert-standard-position"])
        assert code == 0
