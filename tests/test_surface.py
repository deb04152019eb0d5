"""Surface pairing conventions, diagram construction, and validation."""

import random

import numpy as np
import pytest

from trihom.exactalg import IntMatrix
from trihom.surface import (
    Diagram,
    DiagramError,
    DiagramMatrices,
    SurfaceSignature,
    infer_k,
    intersection_number,
    j_matrix,
    l_lattice,
    l_partial_lattice,
    q_matrix,
    r_matrix,
    require_valid,
    s_matrix,
    to_relative,
    validate,
    validate_matrices,
)

TORUS = SurfaceSignature(1, 0, 1)


def torus_diagram() -> Diagram:
    return Diagram.build(1, 0, 1, [[1, 0]], [[0, 1]], [[1, 1]])


def torsion_diagram() -> Diagram:
    # gamma_1 wraps the second handle curve twice, so H_1 picks up 2-torsion
    return Diagram.build(
        2,
        0,
        1,
        [[1, 0, 0, 0], [0, 0, 1, 0]],
        [[1, 0, 0, 0], [0, 0, 0, 1]],
        [[1, 2, 0, 0], [0, 0, 1, 0]],
    )


class TestSignature:
    def test_derived_quantities(self) -> None:
        sig = SurfaceSignature(3, 1, 2)
        assert sig.n == 2 * 3 + 2 - 1
        assert sig.l == 2 * 1 + 2 - 1
        assert sig.curves_per_family == 2
        assert sig.page_rank == 3 + 1 + 2 - 1

    def test_invalid_signatures(self) -> None:
        with pytest.raises(ValueError):
            SurfaceSignature(1, 2, 1)
        with pytest.raises(ValueError):
            SurfaceSignature(1, 0, 0)
        with pytest.raises(ValueError):
            SurfaceSignature(-1, 0, 1)


class TestStructureMatrices:
    def test_torus_s_and_j(self) -> None:
        assert s_matrix(TORUS).to_rows() == [[0, 0], [1, 0]]
        assert j_matrix(TORUS).to_rows() == [[0, 1], [-1, 0]]

    def test_s_block_structure(self) -> None:
        sig = SurfaceSignature(2, 0, 2)
        assert s_matrix(sig).to_rows() == [
            [0, 0, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0],
        ]

    def test_j_is_antisymmetric(self) -> None:
        for sig in (TORUS, SurfaceSignature(2, 1, 2), SurfaceSignature(3, 0, 3)):
            j = j_matrix(sig)
            assert j.transpose().to_rows() == j.neg().to_rows()

    def test_r_projects_page_coordinates(self) -> None:
        assert r_matrix(SurfaceSignature(2, 0, 2)).to_rows() == [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 0],
        ]
        # one surviving handle, one paged handle, one boundary column
        assert r_matrix(SurfaceSignature(2, 1, 2)).to_rows() == [
            [1, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 0],
        ]


class TestPairing:
    def test_handle_pair_meets_once(self) -> None:
        assert intersection_number(TORUS, (1, 0), (0, 1)) == 1
        assert intersection_number(TORUS, (0, 1), (1, 0)) == -1

    def test_self_intersection_vanishes(self) -> None:
        assert intersection_number(TORUS, (1, 1), (1, 1)) == 0

    def test_arc_pairings(self) -> None:
        # f_i pairs with e_j by the Kronecker delta
        assert intersection_number(TORUS, (1, 0), (1, 1), x_is_arc=True) == 1
        assert intersection_number(TORUS, (0, 1), (1, 0), x_is_arc=True) == 0
        assert intersection_number(TORUS, (1, 1), (1, 0), y_is_arc=True) == -1

    def test_arc_arc_undefined(self) -> None:
        with pytest.raises(ValueError):
            intersection_number(TORUS, (1, 0), (0, 1), x_is_arc=True, y_is_arc=True)

    def test_anchor_q_matrix(self) -> None:
        assert q_matrix(TORUS, [(1, 0)], [(1, 1)]).to_rows() == [[1]]

    def test_q_matrix_with_arc_rows(self) -> None:
        got = q_matrix(TORUS, [(1, 0), (0, 1)], [(1, 1)], mu_arcs=True)
        assert got.to_rows() == [[1], [1]]

    def test_to_relative(self) -> None:
        assert to_relative(TORUS, (1, 0)) == (0, 1)
        assert to_relative(TORUS, (0, 1)) == (-1, 0)

    def test_pairing_matches_the_j_matrix(self) -> None:
        rng = random.Random(3)
        sig = SurfaceSignature(3, 1, 3)
        j = j_matrix(sig)
        for _ in range(50):
            x = [rng.randint(-5, 5) for _ in range(sig.n)]
            y = [rng.randint(-5, 5) for _ in range(sig.n)]
            assert intersection_number(sig, x, y) == sum(a * b for a, b in zip(x, j.matvec(y)))
            assert to_relative(sig, x) == j.neg().matvec(x)

    def test_class_lengths_are_checked(self) -> None:
        with pytest.raises(ValueError, match="n=2"):
            intersection_number(TORUS, (1, 0, 0), (0, 1))
        with pytest.raises(ValueError, match="n=2"):
            to_relative(TORUS, (1,))


class TestDiagramLattices:
    def test_curve_span(self) -> None:
        d = torus_diagram()
        assert l_lattice(d, "alpha").generators() == ((1, 0),)
        assert l_lattice(d, "gamma").contains((1, 1))

    def test_boundary_kernel_sublattice(self) -> None:
        d = torus_diagram()
        part = l_partial_lattice(d, "alpha")
        assert part.rank == 1
        assert part.contains((0, 1))

    def test_gamma_boundary_kernel_sublattice(self) -> None:
        part = l_partial_lattice(torus_diagram(), "gamma")
        assert part.generators() == ((1, -1),)

    def test_unknown_family(self) -> None:
        with pytest.raises(ValueError, match="unknown family"):
            l_lattice(torus_diagram(), "delta")

    def test_derived_data_is_kept_on_the_diagram(self) -> None:
        d = torsion_diagram()
        assert l_lattice(d, "beta") is l_lattice(d, "beta")
        assert d.validation is d.validation
        assert d.lattices["gamma"] is l_lattice(d, "gamma")
        assert d == torsion_diagram()  # caches take no part in equality

    def test_inferred_handle_counts(self) -> None:
        assert infer_k(torus_diagram()) == (0, 0, 0)
        assert infer_k(torsion_diagram()) == (1, 0, 1)

    def test_k_stored_when_supplied(self) -> None:
        d = Diagram.build(1, 0, 1, [[1, 0]], [[0, 1]], [[1, 1]], k=(0, 0, 0))
        assert d.k == (0, 0, 0)

    def test_build_rejects_non_integral_classes_and_k(self) -> None:
        with pytest.raises(ValueError, match=r"non-integer entry 1\.7"):
            Diagram.build(1, 0, 1, [[1.7, 0]], [[0, 1]], [[1, 1]])
        with pytest.raises(ValueError, match=r"non-integer entry 0\.5"):
            Diagram.build(1, 0, 1, [[1, 0]], [[0, 1]], [[1, 1]], k=(0, 0.5, 0))
        d = Diagram.build(1, 0, 1, [[np.int64(1), 0]], [[0, 1]], [[1, 1]], k=np.zeros(3, int))
        assert d == Diagram.build(1, 0, 1, [[1, 0]], [[0, 1]], [[1, 1]], k=(0, 0, 0))


class TestValidation:
    def test_torus_passes(self) -> None:
        rep = validate(torus_diagram())
        assert rep.ok
        assert [c.name for c in rep.checks] == [
            "family_sizes",
            "curve_lengths",
            "intra_family_disjoint",
            "family_saturated_basis",
            "k_bounds",
        ]

    def test_torsion_example_passes(self) -> None:
        assert validate(torsion_diagram()).ok

    def test_non_primitive_family_fails(self) -> None:
        bad = Diagram.build(1, 0, 1, [[2, 0]], [[0, 1]], [[1, 1]])
        names = [c.name for c in validate(bad).failures()]
        assert names == ["family_saturated_basis"]
        with pytest.raises(DiagramError):
            require_valid(bad)

    def test_crossing_curves_within_family_fail(self) -> None:
        bad = Diagram.build(
            2,
            0,
            1,
            [[1, 0, 0, 0], [0, 1, 0, 0]],
            [[0, 1, 0, 0], [0, 0, 1, 0]],
            [[1, 2, 0, 0], [0, 0, 1, 0]],
        )
        assert "intra_family_disjoint" in [c.name for c in validate(bad).failures()]

    def test_wrong_curve_length_fails(self) -> None:
        bad = Diagram.build(1, 0, 1, [[1, 0, 0]], [[0, 1]], [[1, 1]])
        assert "curve_lengths" in [c.name for c in validate(bad).failures()]

    def test_wrong_family_size_fails(self) -> None:
        bad = Diagram.build(1, 0, 1, [[1, 0], [0, 1]], [[0, 1]], [[1, 1]])
        assert "family_sizes" in [c.name for c in validate(bad).failures()]

    def test_mismatched_supplied_k_fails(self) -> None:
        bad = Diagram.build(1, 0, 1, [[1, 0]], [[0, 1]], [[1, 1]], k=(1, 0, 0))
        assert "k_matches_supplied" in [c.name for c in validate(bad).failures()]

    def test_non_unimodular_arcs_fail(self) -> None:
        bad = Diagram.build(
            1, 0, 1, [[1, 0]], [[0, 1]], [[1, 1]], arcs=[[2, 0], [0, 1]]
        )
        assert "arcs_unimodular" in [c.name for c in validate(bad).failures()]


def section_six_matrices(k1: int = 1, k: tuple[int, int, int] | None = None) -> DiagramMatrices:
    return DiagramMatrices(
        sig=SurfaceSignature(2, 0, 2),
        k1=k1,
        q_gamma_beta=IntMatrix.from_rows([[1, 0], [0, -1]]),
        q_alpha_gamma=IntMatrix.from_rows([[0, -1], [1, 1]]),
        q_a_gamma=IntMatrix.from_rows([[1, 0]]),
        q_beta_alpha=IntMatrix.from_rows([[1, 0], [0, 1]]),
        k=k,
    )


class TestMatrixModeValidation:
    def test_disk_bundle_data_passes(self) -> None:
        assert validate_matrices(section_six_matrices()).ok

    def test_rank_bound_enforced(self) -> None:
        # with k1 = 2 the pairing of beta against alpha may have rank at most 1
        names = [c.name for c in validate_matrices(section_six_matrices(k1=2)).failures()]
        assert names == ["q_beta_alpha_rank"]

    def test_supplied_k_checked_against_k1_and_bounds(self) -> None:
        names = [c.name for c in validate_matrices(section_six_matrices()).checks]
        assert "k_matches_supplied" not in names
        consistent = validate_matrices(section_six_matrices(k=(1, 1, 3)))
        assert consistent.ok and consistent.checks[-1].name == "k_matches_supplied"
        # k_1 differs from k1, then k_3 leaves [l, g+p+b-1] = [1, 3]
        for k in ((2, 2, 2), (1, 2, 4)):
            names = [c.name for c in validate_matrices(section_six_matrices(k=k)).failures()]
            assert names == ["k_matches_supplied"]

    def test_shape_mismatch_fails(self) -> None:
        mats = DiagramMatrices(
            sig=SurfaceSignature(2, 0, 2),
            k1=1,
            q_gamma_beta=IntMatrix.from_rows([[1, 0], [0, -1]]),
            q_alpha_gamma=IntMatrix.from_rows([[0, -1], [1, 1]]),
            q_a_gamma=IntMatrix.from_rows([[1, 0], [0, 1]]),
            q_beta_alpha=IntMatrix.from_rows([[1, 0], [0, 1]]),
        )
        assert "matrix_shapes" in [c.name for c in validate_matrices(mats).failures()]

    def test_one_raiser_for_both_modes(self) -> None:
        assert require_valid(section_six_matrices()).ok
        with pytest.raises(DiagramError, match="^matrix data rejected: q_beta_alpha_rank"):
            require_valid(section_six_matrices(k1=2))
