"""Chain complexes, homology routes, and the relative intersection pairing."""

import pytest

from trihom.exactalg import IntMatrix
from trihom.homology import (
    ChainComplex,
    build_cy,
    build_cz,
    euler_characteristic,
    h_closed_forms,
    homology_of,
    intersection_form,
    phi,
)
from trihom.surface import Diagram, PreconditionError, infer_k


def punctured_cp2bar() -> Diagram:
    return Diagram.build(1, 0, 1, [[1, 0]], [[0, 1]], [[1, 1]])


def torsion_genus_two() -> Diagram:
    return Diagram.build(
        2,
        0,
        1,
        [[1, 0, 0, 0], [0, 0, 1, 0]],
        [[1, 0, 0, 0], [0, 0, 0, 1]],
        [[1, 2, 0, 0], [0, 0, 1, 0]],
    )


def paged_torsion() -> Diagram:
    # g = 2, p = 1: one curve per family, torsion from the doubled handle wrap
    return Diagram.build(2, 1, 1, [[1, 0, 0, 0]], [[0, 0, 1, 0]], [[1, 2, 1, 0]])


def two_handle_standard() -> Diagram:
    return Diagram.build(
        2,
        0,
        2,
        [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]],
        [[0, 1, 0, 0, 0], [0, 0, 0, 1, 0]],
        [[1, 1, 0, 0, 0], [0, 0, 1, 1, 0]],
    )


def trivial_page() -> Diagram:
    return Diagram.build(1, 1, 1, [], [], [])


def unsaturated_pair() -> Diagram:
    # each family is primitive but L_alpha + L_beta has index 2 in the ambient
    return Diagram.build(1, 0, 1, [[1, 0]], [[1, 2]], [[0, 1]])


def pretty(d: Diagram, build) -> list[str]:
    return [str(g) for g in build(d).groups()]


class TestChainComplexes:
    def test_small_complex_ranks(self) -> None:
        assert build_cy(punctured_cp2bar()).ranks == (1, 0, 1, 0)
        assert build_cy(trivial_page()).ranks == (1, 2, 0, 0)

    def test_large_complex_ranks(self) -> None:
        assert build_cz(punctured_cp2bar()).ranks == (1, 2, 3, 0)
        assert build_cz(trivial_page()).ranks == (1, 2, 0, 0)

    def test_boundary_composites_enforced(self) -> None:
        with pytest.raises(ValueError):
            # d1 then d2 composes to [[1]]
            ChainComplex(
                ranks=(1, 1, 1, 0),
                boundaries=(
                    IntMatrix.from_rows([[1]]),
                    IntMatrix.from_rows([[1]]),
                    IntMatrix.zeros(1, 0),
                ),
                source="y",
            )
        with pytest.raises(ValueError):
            # d2 then d3 composes to [[1]]
            ChainComplex(
                ranks=(1, 1, 1, 1),
                boundaries=(
                    IntMatrix.zeros(1, 1),
                    IntMatrix.from_rows([[1]]),
                    IntMatrix.from_rows([[1]]),
                ),
                source="z",
            )

    def test_saturation_precondition_for_small_complex(self) -> None:
        with pytest.raises(PreconditionError):
            build_cy(unsaturated_pair())
        # the large complex and the closed forms still apply
        assert pretty(unsaturated_pair(), lambda d: homology_of(build_cz(d))) == [
            "Z",
            "0",
            "Z",
            "0",
        ]
        assert pretty(unsaturated_pair(), h_closed_forms) == ["Z", "0", "Z", "0"]


class TestHomologyRoutes:
    def routes(self, d: Diagram) -> list[list[str]]:
        return [
            pretty(d, lambda x: homology_of(build_cy(x))),
            pretty(d, lambda x: homology_of(build_cz(x))),
            pretty(d, h_closed_forms),
        ]

    def test_punctured_cp2bar(self) -> None:
        for groups in self.routes(punctured_cp2bar()):
            assert groups == ["Z", "0", "Z", "0"]

    def test_torsion_genus_two(self) -> None:
        assert infer_k(torsion_genus_two()) == (1, 0, 1)
        for groups in self.routes(torsion_genus_two()):
            assert groups == ["Z", "Z/2", "0", "0"]

    def test_paged_torsion(self) -> None:
        assert infer_k(paged_torsion()) == (2, 2, 2)
        for groups in self.routes(paged_torsion()):
            assert groups == ["Z", "Z + Z/2", "0", "0"]

    def test_trivial_page(self) -> None:
        for groups in self.routes(trivial_page()):
            assert groups == ["Z", "Z^2", "0", "0"]

    def test_two_handle_standard(self) -> None:
        for groups in self.routes(two_handle_standard()):
            assert groups == ["Z", "Z", "Z^2", "0"]

    def test_source_labels(self) -> None:
        d = punctured_cp2bar()
        assert homology_of(build_cy(d)).source == "y"
        assert homology_of(build_cz(d)).source == "z"
        assert h_closed_forms(d).source == "closed"


class TestEulerCharacteristic:
    def test_both_complexes_agree(self) -> None:
        for d in (punctured_cp2bar(), torsion_genus_two(), paged_torsion(), trivial_page()):
            assert euler_characteristic(build_cy(d)) == euler_characteristic(build_cz(d))

    def test_frozen_values(self) -> None:
        assert euler_characteristic(build_cz(punctured_cp2bar())) == 2
        assert euler_characteristic(build_cz(paged_torsion())) == 0
        assert euler_characteristic(build_cz(two_handle_standard())) == 2

    def test_handle_count_formulas(self) -> None:
        for d in (punctured_cp2bar(), torsion_genus_two(), paged_torsion()):
            sig = d.sig
            k1, k2, k3 = infer_k(d)
            chi_small = 1 - k1 + (sig.g - sig.p) - (k2 + k3 - 2 * sig.l)
            chi_large = (
                1 - sig.n + 3 * (sig.g - sig.p) - (k1 + k2 + k3 - 3 * sig.l)
            )
            assert euler_characteristic(build_cy(d)) == chi_small
            assert euler_characteristic(build_cz(d)) == chi_large


class TestPairing:
    def test_frozen_value(self) -> None:
        assert phi(punctured_cp2bar(), (1,), (1,)) == -1

    def test_symmetry(self) -> None:
        d = two_handle_standard()
        for x in ((1, 0), (0, 1), (1, 1), (2, -1)):
            for y in ((1, 0), (0, 1), (1, 1)):
                assert phi(d, x, y) == phi(d, y, x)

    def test_bilinearity(self) -> None:
        d = two_handle_standard()
        a, b, c = (1, 0), (0, 1), (1, 1)
        assert phi(d, c, a) == phi(d, a, a) + phi(d, b, a)

    def test_wrong_coordinate_length(self) -> None:
        with pytest.raises(ValueError):
            phi(punctured_cp2bar(), (1, 0), (1,))

    def test_argument_outside_domain(self) -> None:
        # gamma of this diagram does not decompose into alpha and beta parts
        with pytest.raises(PreconditionError):
            phi(unsaturated_pair(), (1,), (1,))


class TestIntersectionForm:
    def test_punctured_cp2bar(self) -> None:
        f = intersection_form(punctured_cp2bar())
        assert f.matrix.to_rows() == [[-1]]
        assert f.generators == ((1,),)
        assert f.torsion == ()

    def test_two_handle_standard(self) -> None:
        f = intersection_form(two_handle_standard())
        assert f.matrix.to_rows() == [[-1, 0], [0, -1]]
        assert f.generators == ((1, 0), (0, 1))

    def test_rank_matches_h2(self) -> None:
        for d in (punctured_cp2bar(), torsion_genus_two(), two_handle_standard()):
            f = intersection_form(d)
            h2 = h_closed_forms(d).h2
            assert f.matrix.rows == h2.free_rank
            assert f.torsion == h2.invariant_factors

    def test_empty_for_torsion_only_h2(self) -> None:
        f = intersection_form(torsion_genus_two())
        assert f.matrix.rows == 0
        assert f.generators == ()

    def test_matrix_is_symmetric(self) -> None:
        for d in (punctured_cp2bar(), two_handle_standard()):
            m = intersection_form(d).matrix
            assert m.to_rows() == m.transpose().to_rows()

    def test_values_match_phi_on_generators(self) -> None:
        d = two_handle_standard()
        f = intersection_form(d)
        for i, gi in enumerate(f.generators):
            for j, gj in enumerate(f.generators):
                assert f.matrix.entry(i, j) == phi(d, gi, gj)
