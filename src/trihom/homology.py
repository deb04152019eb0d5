"""Chain complexes, homology groups, and the intersection pairing.

Two finite complexes compute the homology of the filling 4-manifold from a
class-mode diagram. The small one (y) is built from the two compression
lattices and the page intersection; the large one (z) from all three curve
families at once. Closed-form lattice quotients give the same groups a
third way; the test corpus pins the three against each other.

Coordinates: C_2 of the small complex and both sides of the pairing use
gamma-family coordinates (length g-p); the large complex uses family
coordinates stacked alpha, beta, gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import (
    AbelianGroup,
    IntMatrix,
    Lattice,
    _snf_with_inverses,
    lattice_intersect,
    lattice_sum,
)
from .surface import (
    Diagram,
    PreconditionError,
    intersection_number,
    require_valid,
)


@dataclass(frozen=True)
class ChainComplex:
    """Four-term complex of free groups: C_3 -> C_2 -> C_1 -> C_0.

    boundaries[i] is the map out of C_{i+1}, so their shapes fix the ranks;
    maps that do not compose, or whose double composite is not zero, are
    refused with ValueError on construction.
    """

    boundaries: tuple[IntMatrix, IntMatrix, IntMatrix]
    source: str

    def __post_init__(self) -> None:
        d1, d2, d3 = self.boundaries
        if not d1.mul(d2).is_zero or not d2.mul(d3).is_zero:
            raise ValueError("boundary maps do not compose to zero")

    @property
    def ranks(self) -> tuple[int, int, int, int]:
        d1, d2, d3 = self.boundaries
        return (d1.rows, d1.cols, d2.cols, d3.cols)


@dataclass(frozen=True)
class HomologyResult:
    h0: AbelianGroup
    h1: AbelianGroup
    h2: AbelianGroup
    h3: AbelianGroup
    source: str

    def groups(self) -> tuple[AbelianGroup, AbelianGroup, AbelianGroup, AbelianGroup]:
        return (self.h0, self.h1, self.h2, self.h3)


def _family_coordinates(d: Diagram, family: str, ambient: tuple[int, ...]) -> tuple[int, ...]:
    x = d.family_solvers[family].solve(ambient)
    if x is None:
        raise RuntimeError("class unexpectedly outside its curve family span")
    return x


def _complex(d2: IntMatrix, cols3: list[list[int]], source: str) -> ChainComplex:
    """The complex with second boundary d2, the columns cols3 of the third,
    and the zero first boundary into C_0 = Z."""
    d1 = IntMatrix.zeros(1, d2.rows)
    return ChainComplex((d1, d2, IntMatrix.from_columns(d2.cols, cols3)), source)


def build_cy(d: Diagram) -> ChainComplex:
    """Small complex from the alpha/beta compression data and gamma.

    Requires L_alpha + L_beta saturated; every diagram of an actual
    manifold satisfies this, and without it the complex computes the
    wrong groups, so a violation raises PreconditionError.
    """
    require_valid(d)
    if not d.alpha_beta_saturated:
        raise PreconditionError(
            "L_alpha + L_beta is not saturated; no surface diagram produces "
            "this, and the small complex would compute the wrong homology. "
            "Use the large complex or the closed forms."
        )
    ag = d.intersections["gamma", "alpha"]
    bg = d.intersections["beta", "gamma"]
    cols3 = [list(_family_coordinates(d, "gamma", g)) for g in ag.generators() + bg.generators()]
    return _complex(d.page_pairing, cols3, "y")


def build_cz(d: Diagram) -> ChainComplex:
    """Large complex from all three curve families."""
    require_valid(d)
    cpf = d.sig.curves_per_family
    families = ("alpha", "beta", "gamma")
    # a class of L_mu cap L_nu in mu's coordinates minus nu's, which d2 kills
    cols3: list[list[int]] = []
    for (mu, nu), lat in d.intersections.items():
        i, j = families.index(mu) * cpf, families.index(nu) * cpf
        for gen in lat.generators():
            col = [0] * (3 * cpf)
            col[i : i + cpf] = _family_coordinates(d, mu, gen)
            col[j : j + cpf] = [-x for x in _family_coordinates(d, nu, gen)]
            cols3.append(col)
    return _complex(d.curve_rows.transpose(), cols3, "z")


def homology_of(c: ChainComplex) -> HomologyResult:
    """H_i is C_i / im d_{i+1} with free rank lowered by rank d_i (ker d_i is saturated
    and holds im d_{i+1}); the image's Hermite basis is that quotient's relation matrix."""
    images = [Lattice.from_matrix_columns(m).basis for m in c.boundaries]
    diags = [_snf_with_inverses(im)[1].diagonal() for im in images] + [()]
    outs = [0] + [im.cols for im in images]
    groups = [AbelianGroup.from_smith_diagonal(r - o, x) for r, o, x in zip(c.ranks, outs, diags)]
    return HomologyResult(*groups, source=c.source)


def h_closed_forms(d: Diagram) -> HomologyResult:
    """The four groups straight from lattice arithmetic, no complexes.
    H_1 is Z^n / (L_alpha + L_beta + L_gamma), and the Hermite basis of
    that sum is its relation matrix in the standard basis of Z^n."""
    require_valid(d)
    lg = d.lattices["gamma"]
    h0 = AbelianGroup(1)
    curves = lattice_sum(d.alpha_beta_sum, lg).basis
    h1 = AbelianGroup.from_smith_diagonal(d.sig.n, _snf_with_inverses(curves)[1].diagonal())
    h2 = AbelianGroup.from_smith_diagonal(d.h2_lattices[0].rank, d.h2_relations[0])
    h3 = AbelianGroup(lattice_intersect(d.intersections["alpha", "beta"], lg).rank)
    return HomologyResult(h0, h1, h2, h3, source="closed")


def euler_characteristic(c: ChainComplex) -> int:
    r = c.ranks
    return r[0] - r[1] + r[2] - r[3]


# ---------------------------------------------------------------------------
# intersection pairing


def _alpha_part(d: Diagram, ambient: tuple[int, ...]) -> tuple[int, ...]:
    """x' with x = x' + x'', x' in L_alpha, x'' in L_beta; errors outside."""
    sol = d.alpha_beta_solver.solve(ambient)
    if sol is None:
        raise PreconditionError(
            f"class {list(ambient)} is not in L_alpha + L_beta"
        )
    a = d.family_matrices["alpha"]
    return a.matvec(sol[: a.cols])


def phi(d: Diagram, x: tuple[int, ...] | list[int], y: tuple[int, ...] | list[int]) -> int:
    """Pairing of two surface-framed classes given in gamma coordinates.

    Both classes must lie in L_alpha + L_beta (as ambient classes); the
    value does not depend on the decomposition choice.
    """
    require_valid(d)
    gam = d.family_matrices["gamma"]
    if len(x) != gam.cols or len(y) != gam.cols:
        raise ValueError(f"gamma coordinates must have length {gam.cols}")
    xprime = _alpha_part(d, gam.matvec(x))
    y_amb = gam.matvec(y)
    # y must also decompose, or the value would depend on the choice of x'
    _alpha_part(d, y_amb)
    return -intersection_number(d.sig, xprime, y_amb)


@dataclass(frozen=True)
class IntersectionForm:
    """Symmetric pairing on the free part of H_2.

    generators are gamma-family coordinate vectors of the chosen free
    generators; matrix[i][j] is their pairing; torsion lists the invariant
    factors of the torsion subgroup alongside.
    """

    generators: tuple[tuple[int, ...], ...]
    matrix: IntMatrix
    torsion: tuple[int, ...]


def intersection_form(d: Diagram) -> IntersectionForm:
    """Free generators of H_2 with their pairing matrix.

    H_2 is presented as (L_gamma cap (L_alpha + L_beta)) over
    ((L_gamma cap L_alpha) + (L_gamma cap L_beta)); a Smith basis of the
    numerator splits off the torsion and the pairing is evaluated on the
    surviving free generators.
    """
    require_valid(d)
    num = d.h2_lattices[0]
    diag, uinv = d.h2_relations
    rank_rel = sum(1 for t in diag if t != 0)
    torsion = tuple(t for t in diag if t > 1)

    adapted = num.basis.mul(uinv)
    free_ambient = [adapted.column(j) for j in range(rank_rel, num.rank)]

    gens = tuple(_family_coordinates(d, "gamma", v) for v in free_ambient)
    # every generator lies in L_alpha + L_beta, so each splits once
    parts = [_alpha_part(d, v) for v in free_ambient]
    vals = [
        [-intersection_number(d.sig, xp, w) for w in free_ambient] for xp in parts
    ]
    return IntersectionForm(
        generators=gens,
        matrix=IntMatrix.from_rows(vals, cols=len(free_ambient)),
        torsion=torsion,
    )
