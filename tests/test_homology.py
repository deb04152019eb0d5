"""Chain complexes, homology routes, and the relative intersection pairing."""

import math
import random

import pytest

from corpus import homology_by_kernels
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
                boundaries=(
                    IntMatrix.zeros(1, 1),
                    IntMatrix.from_rows([[1]]),
                    IntMatrix.from_rows([[1]]),
                ),
                source="z",
            )
        with pytest.raises(ValueError, match="shape mismatch"):
            # d1 leaves a rank-2 group, but d2 lands in a rank-1 one
            ChainComplex(
                boundaries=(IntMatrix.zeros(1, 2), IntMatrix.zeros(1, 1), IntMatrix.zeros(1, 0)),
                source="y",
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


def unimodular_pair(rng: random.Random, n: int) -> tuple[IntMatrix, IntMatrix]:
    """A random unimodular n x n matrix P and its inverse, from elementary
    row operations on P matched by inverse column operations on P^-1."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in q:
            row[j] -= c * row[i]
    return IntMatrix.from_rows(p, cols=n), IntMatrix.from_rows(q, cols=n)


def random_complex(rng: random.Random) -> tuple[ChainComplex, list[tuple[int, list[int]]]]:
    """A complex with known homology, and that homology as (free rank,
    diagonal of the torsion relations) per degree.

    In adapted bases C_i splits into s_i boundaries, h_i free cycles and
    s_{i-1} basis vectors that d_i sends to t times a boundary of C_{i-1}.
    So d_i d_{i+1} = 0, d_{i+1} has rank s_i, below both of its
    dimensions when h_i and h_{i+1} are positive, and H_i = Z^{h_i} plus
    the Z/t of degree i. Unimodular changes of basis then hide the split.
    """
    s = [rng.randint(0, 2) for _ in range(3)] + [0]
    h = [rng.randint(0, 2) for _ in range(4)]
    t = [[rng.choice((1, 2, 3, 4, 6)) for _ in range(k)] for k in s]
    ranks = [s[i] + h[i] + (s[i - 1] if i else 0) for i in range(4)]
    bases = [unimodular_pair(rng, r) for r in ranks]
    boundaries = []
    for i in range(3):
        # C_{i+1} -> C_i: the last s_i basis vectors of C_{i+1} onto the first s_i of C_i
        rows = [[0] * ranks[i + 1] for _ in range(ranks[i])]
        offset = s[i + 1] + h[i + 1]
        for k, tk in enumerate(t[i]):
            rows[k][offset + k] = tk
        adapted = IntMatrix.from_rows(rows, cols=ranks[i + 1])
        boundaries.append(bases[i][0].mul(adapted).mul(bases[i + 1][1]))
    c = ChainComplex(boundaries=tuple(boundaries), source="random")
    assert c.ranks == tuple(ranks)
    return c, list(zip(h, t))


class TestImageOnlyReading:
    def test_random_complexes_match_the_kernel_oracle(self) -> None:
        rng = random.Random(17)
        torsion_in_h1_and_h2 = 0
        for _ in range(60):
            c, known = random_complex(rng)
            got = homology_of(c)
            assert got == homology_by_kernels(c)
            for group, (free, diagonal) in zip(got.groups(), known):
                assert group.free_rank == free
                assert math.prod(group.invariant_factors) == math.prod(diagonal)
            ranks = [g.free_rank for g in got.groups()]
            assert ranks[0] - ranks[1] + ranks[2] - ranks[3] == euler_characteristic(c)
            torsion_in_h1_and_h2 += bool(got.h1.invariant_factors and got.h2.invariant_factors)
        assert torsion_in_h1_and_h2 >= 5


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
