"""Surface data for relative trisection diagrams.

A diagram lives on a compact surface of genus g with b boundary components.
Curve classes are row-free column vectors over the ordered basis e_1..e_n of
H_1 (n = 2g+b-1); arc classes live in H_1 rel boundary over the dual basis
f_1..f_n. The two algebraic intersection pairings used everywhere:

    curve-curve   <x, y> = x^T (S^T - S) y
    arc-curve     <a, x> = a^T x          (curve-arc is the negative)

with S the block framing matrix of the standard handle picture. The sign of
the curve-curve pairing is pinned by two frozen anchors in the test suite:
the genus-1 q_matrix example and the two-handle linking matrix example.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .exactalg import (
    HermiteSolver,
    IntMatrix,
    Lattice,
    _ints,
    _snf_with_inverses,
    hermite_column_form,
    hermite_solver,
    is_unimodular,
    lattice_intersect,
    lattice_sum,
    orthogonal_complement,
    relation_matrix,
)


class DiagramError(ValueError):
    """The input fails diagram validation."""


class PreconditionError(Exception):
    """The input is a plausible diagram but the requested computation's
    preconditions do not hold (missing assertion, wrong mode, bad arcs)."""


# ---------------------------------------------------------------------------
# signature and conventions


@dataclass(frozen=True)
class SurfaceSignature:
    """(g, p, b): surface genus, page genus, boundary components."""

    g: int
    p: int
    b: int

    def __post_init__(self) -> None:
        if not (self.g >= self.p >= 0):
            raise ValueError(f"need g >= p >= 0, got g={self.g}, p={self.p}")
        if self.b < 1:
            raise ValueError(f"need b >= 1, got b={self.b}")

    @property
    def l(self) -> int:
        """Arc count of the page: 2p + b - 1."""
        return 2 * self.p + self.b - 1

    @property
    def n(self) -> int:
        """Rank of H_1 of the surface: 2g + b - 1."""
        return 2 * self.g + self.b - 1

    @property
    def curves_per_family(self) -> int:
        return self.g - self.p

    @property
    def page_rank(self) -> int:
        """g + p + b - 1, the rank of each boundary-compatible lattice."""
        return self.g + self.p + self.b - 1


def s_matrix(sig: SurfaceSignature) -> IntMatrix:
    """Framing matrix: g blocks [[0,0],[1,0]] then b-1 zero rows/columns."""
    n = sig.n
    rows = [[0] * n for _ in range(n)]
    for h in range(sig.g):
        rows[2 * h + 1][2 * h] = 1
    return IntMatrix.from_rows(rows, cols=n)


def j_matrix(sig: SurfaceSignature) -> IntMatrix:
    """S^T - S; the curve-curve pairing is x^T J y."""
    s = s_matrix(sig)
    st = s.transpose()
    ent = tuple(a - b for a, b in zip(st.entries, s.entries))
    return IntMatrix(sig.n, sig.n, ent)


def r_matrix(sig: SurfaceSignature) -> IntMatrix:
    """Page framing matrix of size g+p+b-1: identity on the g-p curve slots,
    p blocks [[0,0],[1,0]] on the page handle arcs, zeros on boundary arcs."""
    m = sig.page_rank
    rows = [[0] * m for _ in range(m)]
    for i in range(sig.curves_per_family):
        rows[i][i] = 1
    base = sig.curves_per_family
    for h in range(sig.p):
        rows[base + 2 * h + 1][base + 2 * h] = 1
    return IntMatrix.from_rows(rows, cols=m)


def intersection_number(sig: SurfaceSignature, x: Sequence[int], y: Sequence[int]) -> int:
    """Algebraic intersection number x^T J y of two curve classes."""
    if len(x) != sig.n or len(y) != sig.n:
        raise ValueError(f"class length must be n={sig.n}")
    # without J: each handle pair contributes its 2x2 determinant
    return sum(x[2 * h] * y[2 * h + 1] - x[2 * h + 1] * y[2 * h] for h in range(sig.g))


def to_relative(sig: SurfaceSignature, x: Sequence[int]) -> tuple[int, ...]:
    """Image of a curve class in H_1 rel boundary: (S - S^T) x, so that
    <to_relative(x), y> as arc-curve equals <x, y> as curve-curve."""
    if len(x) != sig.n:
        raise ValueError(f"class length must be n={sig.n}")
    out = [0] * sig.n
    for h in range(sig.g):
        out[2 * h], out[2 * h + 1] = -x[2 * h + 1], x[2 * h]
    return tuple(out)


def q_matrix(
    sig: SurfaceSignature, mu: Sequence[Sequence[int]], nu: Sequence[Sequence[int]]
) -> IntMatrix:
    """Pairing matrix Q[i][j] = <mu_i, nu_j> of two lists of curve classes."""
    rows = [[intersection_number(sig, m, v) for v in nu] for m in mu]
    return IntMatrix.from_rows(rows, cols=len(nu))


def _page_linking(
    sig: SurfaceSignature, qgb: IntMatrix, qag: IntMatrix, qa_g: IntMatrix
) -> IntMatrix:
    """Linking matrix of the gamma curves from the page pairings."""
    # rows: gamma against (beta curves, then page arcs); columns: (alpha
    # curves, then page arcs) against gamma; the page framing sits between
    left = qgb.hstack(qa_g.transpose().neg())
    right = qag.vstack(qa_g)
    return left.mul(r_matrix(sig)).mul(right)


# ---------------------------------------------------------------------------
# diagrams


_FAMILIES = ("alpha", "beta", "gamma")
# the family pairs behind the handle counts k_1, k_2, k_3
_PAIRS = (("alpha", "beta"), ("beta", "gamma"), ("gamma", "alpha"))


@dataclass(frozen=True)
class Diagram:
    """Class-mode diagram: three families of curve classes on one surface.

    arcs, when given, is an n x n unimodular matrix whose columns are arc
    classes; the first l columns are the special page arcs. When omitted,
    the standard dual basis f_1..f_n is used. standard_position records the
    user's assertion that the alpha/beta pair together with those arcs is
    in the standard configuration; it cannot be verified from classes alone
    and gates the y-route computations.

    The validation report, the lattices every route reads, the
    factorizations the routes solve against and the pairing data of the
    linking, w2 and spin routes are computed on first use and kept on the
    diagram, so each is computed once however many routes run.
    """

    page_basis = "canonical basis of L_alpha_partial cap L_beta_partial"

    sig: SurfaceSignature
    alpha: tuple[tuple[int, ...], ...]
    beta: tuple[tuple[int, ...], ...]
    gamma: tuple[tuple[int, ...], ...]
    k: tuple[int, int, int] | None = None
    arcs: IntMatrix | None = None
    standard_position: bool = False

    @classmethod
    def build(
        cls,
        g: int,
        p: int,
        b: int,
        alpha: Sequence[Sequence[int]],
        beta: Sequence[Sequence[int]],
        gamma: Sequence[Sequence[int]],
        k: Sequence[int] | None = None,
        arcs: IntMatrix | Sequence[Sequence[int]] | None = None,
        standard_position: bool = False,
    ) -> "Diagram":
        sig = SurfaceSignature(g, p, b)
        freeze = lambda fam: tuple(_ints(c) for c in fam)
        if arcs is not None and not isinstance(arcs, IntMatrix):
            arcs = IntMatrix.from_columns(sig.n, [list(c) for c in arcs])
        kk = _ints(k) if k is not None else None
        if kk is not None and len(kk) != 3:
            raise ValueError(f"k must have three entries, got {kk}")
        return cls(
            sig=sig,
            alpha=freeze(alpha),
            beta=freeze(beta),
            gamma=freeze(gamma),
            k=kk,
            arcs=arcs,
            standard_position=standard_position,
        )

    def family(self, name: str) -> tuple[tuple[int, ...], ...]:
        if name not in _FAMILIES:
            raise ValueError(f"unknown family {name!r}")
        return getattr(self, name)

    @cached_property
    def validation(self) -> ValidationReport:
        """validate(self), computed on first use and kept."""
        return validate(self)

    @cached_property
    def family_matrices(self) -> dict[str, IntMatrix]:
        """For each family, the n x (g-p) matrix whose columns are its curve classes."""
        return {f: IntMatrix.from_columns(self.sig.n, getattr(self, f)) for f in _FAMILIES}

    @cached_property
    def lattices(self) -> dict[str, Lattice]:
        """L_mu for each family mu: the span of its curve classes, read off
        the family's Hermite solver."""
        return {f: solver.span for f, solver in self.family_solvers.items()}

    @cached_property
    def partial_intersection(self) -> Lattice:
        """L_alpha_partial cap L_beta_partial: the classes pairing to zero
        with both families, which is the annihilator of L_alpha + L_beta."""
        return orthogonal_complement(self.alpha_beta_sum)

    @cached_property
    def intersections(self) -> dict[tuple[str, str], Lattice]:
        """L_mu cap L_nu over the pairs (alpha, beta), (beta, gamma), (gamma, alpha)."""
        return {(m, n): lattice_intersect(self.lattices[m], self.lattices[n]) for m, n in _PAIRS}

    @cached_property
    def alpha_beta_sum(self) -> Lattice:
        """L_alpha + L_beta."""
        return lattice_sum(self.lattices["alpha"], self.lattices["beta"])

    @cached_property
    def alpha_beta_saturated(self) -> bool:
        """Whether L_alpha + L_beta is saturated, as every diagram of an
        actual manifold has it."""
        return self.alpha_beta_sum.is_saturated()

    @cached_property
    def h2_lattices(self) -> tuple[Lattice, Lattice]:
        """H_2 as (L_gamma cap (L_alpha + L_beta)) over
        ((L_gamma cap L_alpha) + (L_gamma cap L_beta)): numerator, denominator."""
        num = lattice_intersect(self.lattices["gamma"], self.alpha_beta_sum)
        den = lattice_sum(self.intersections["gamma", "alpha"], self.intersections["beta", "gamma"])
        return num, den

    @cached_property
    def h2_relations(self) -> tuple[tuple[int, ...], IntMatrix]:
        """Smith diagonal and U^-1 of the H_2 relation matrix (the
        coordinates of the denominator's basis in the numerator's): the
        diagonal gives H_2, U^-1 the form's basis of the numerator."""
        _, dg, _, uinv = _snf_with_inverses(relation_matrix(*self.h2_lattices), transforms=True)
        return dg.diagonal(), uinv

    @cached_property
    def family_solvers(self) -> dict[str, HermiteSolver]:
        """Hermite solver of each family matrix: its span L_mu, and family
        coordinates of any class in that span by one solve. It takes any
        matrix and gives one solution; validate requires each family to
        have full column rank, so there the coordinates are unique."""
        return {f: hermite_solver(m) for f, m in self.family_matrices.items()}

    @cached_property
    def alpha_beta_solver(self) -> HermiteSolver:
        """Hermite solver of [alpha | beta], splitting a class of
        L_alpha + L_beta into an alpha part and a beta part. It gives one
        split; two alpha parts differ by a class of L_alpha cap L_beta,
        which pairs to zero with all of L_alpha + L_beta because each
        family is intra-family disjoint, so every pairing against that sum
        is the same for any split."""
        fams = self.family_matrices
        return hermite_solver(fams["alpha"].hstack(fams["beta"]))

    @cached_property
    def special_arcs(self) -> tuple[tuple[int, ...], ...]:
        """The l page arcs: the first l columns of the arc system, which
        defaults to the standard dual basis."""
        arcs = self.arcs if self.arcs is not None else IntMatrix.identity(self.sig.n)
        return tuple(arcs.column(j) for j in range(self.sig.l))

    @cached_property
    def standard_position_refusal(self) -> str | None:
        """Why the y route's linking data cannot be read off this diagram,
        or None. Standard position is a statement about curves, not
        classes, so the user must assert it; what can be checked is that
        the page arcs complete phi(alpha) and phi(beta) to bases of their
        boundary-compatible lattices, that L_alpha + L_beta is saturated,
        and that alpha and beta pair as in standard position: alpha_i and
        beta_j disjoint for i != j, and alpha_i = beta_i or meeting beta_i
        once. Alpha or beta handle slides keep both lattice checks but
        break the pairing. A string, not an exception, whose traceback
        would tie the diagram into a reference cycle."""
        if not self.standard_position:
            return ("the y route needs the standard-position assertion for this "
                    "diagram (file field standard_position or flag "
                    "--assert-standard-position); without it use the z route")
        sig = self.sig
        for fam in ("alpha", "beta"):
            target = orthogonal_complement(self.lattices[fam])
            gens = [to_relative(sig, c) for c in self.family(fam)] + list(self.special_arcs)
            cand = Lattice.from_generators(sig.n, gens)
            if cand != target or len(gens) != target.rank:
                return (f"the supplied page arcs do not complete the {fam} family "
                        f"to a basis of its boundary-compatible lattice; the "
                        f"standard-position assertion is inconsistent with the classes")
        if not self.alpha_beta_saturated:
            return ("L_alpha + L_beta is not saturated, which contradicts the "
                    "standard-position assertion")
        q = q_matrix(sig, self.alpha, self.beta)
        for i, (a, b) in enumerate(zip(self.alpha, self.beta)):
            off_diagonal = any(q.entry(i, j) for j in range(q.cols) if j != i)
            if off_diagonal or (a != b and abs(q.entry(i, i)) != 1):
                return ("the alpha and beta classes do not pair as in standard "
                        "position (<alpha_i, beta_j> = 0 for i != j, and alpha_i = "
                        "beta_i or <alpha_i, beta_i> = +-1); the standard-position "
                        "assertion is inconsistent with the classes")
        return None

    @cached_property
    def linking_y(self) -> IntMatrix:
        """(g-p) x (g-p) linking matrix L_y of the gamma curves, page route:
        -G^T L_y G is intersection_form(self).matrix, with G the form's
        generators as columns. Raises PreconditionError with standard_position_refusal."""
        if self.standard_position_refusal is not None:
            raise PreconditionError(self.standard_position_refusal)
        sig = self.sig
        qgb = q_matrix(sig, self.gamma, self.beta)
        qag = q_matrix(sig, self.alpha, self.gamma)
        # an arc a pairs with a curve x by a^T x
        arcs = IntMatrix.from_rows(self.special_arcs, cols=sig.n)
        qa_g = arcs.mul(self.family_matrices["gamma"])
        return _page_linking(sig, qgb, qag, qa_g)

    @cached_property
    def curve_rows(self) -> IntMatrix:
        """3(g-p) x n: alpha, then beta, then gamma classes as rows; build_cz's d2 transposed."""
        return IntMatrix.from_rows([*self.alpha, *self.beta, *self.gamma], cols=self.sig.n)

    @cached_property
    def linking_z(self) -> IntMatrix:
        """3(g-p) x 3(g-p) linking matrix of all curves, doubling route."""
        rows = self.curve_rows
        return rows.mul(s_matrix(self.sig)).mul(rows.transpose()).neg()

    @cached_property
    def page_pairing(self) -> IntMatrix:
        """W^T G: the pairings of the page_basis of L_alpha_partial cap
        L_beta_partial (rows) against the gamma curves (columns)."""
        return self.partial_intersection.basis.transpose().mul(self.family_matrices["gamma"])


@dataclass(frozen=True)
class DiagramMatrices:
    """Matrix-mode diagram: the pairing data of a standard-position diagram.

    Rows of q_gamma_beta / q_alpha_gamma index the gamma / alpha curves;
    q_a_gamma pairs the l page arcs against the gamma curves. Alpha and
    beta list the k1 - l curves they share first. k, when
    given, is the supplied (k_1, k_2, k_3); validation checks it against k1
    and the bounds. The validation report and the y route's linking matrix
    and page pairing are computed on first use and kept, as on Diagram.
    """

    page_basis = "first k1-l alpha curves, then the l page arcs"

    sig: SurfaceSignature
    k1: int
    q_gamma_beta: IntMatrix
    q_alpha_gamma: IntMatrix
    q_a_gamma: IntMatrix
    q_beta_alpha: IntMatrix | None = None
    k: tuple[int, int, int] | None = None

    @cached_property
    def validation(self) -> ValidationReport:
        """validate_matrices(self), computed on first use and kept."""
        return validate_matrices(self)

    @cached_property
    def linking_y(self) -> IntMatrix:
        """(g-p) x (g-p) linking matrix L_y of the gamma curves, page route:
        -G^T L_y G is the intersection form, with G its generators as columns."""
        return _page_linking(self.sig, self.q_gamma_beta, self.q_alpha_gamma, self.q_a_gamma)

    @cached_property
    def page_pairing(self) -> IntMatrix:
        """The pairings of the page_basis (rows), which spans the page
        intersection lattice, against the gamma curves (columns)."""
        head = self.q_alpha_gamma.take_rows(range(self.k1 - self.sig.l))
        return head.vstack(self.q_a_gamma)


def l_lattice(d: Diagram, family: str) -> Lattice:
    """Lattice spanned by a family's curve classes in H_1."""
    d.family(family)  # rejects an unknown name
    return d.lattices[family]


def l_partial_lattice(d: Diagram, family: str) -> Lattice:
    """Classes in H_1 rel boundary pairing to zero with the whole family."""
    return orthogonal_complement(l_lattice(d, family))


def infer_k(d: Diagram) -> tuple[int, int, int]:
    """k_i = l + rank(L_mu cap L_nu) over the pairs (a,b), (b,g), (g,a)."""
    return tuple(d.sig.l + lat.rank for lat in d.intersections.values())


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[ValidationCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def validate(d: Diagram) -> ValidationReport:
    """Necessary-condition validation of a class-mode diagram.

    Passing does not certify that the classes come from an actual surface
    diagram; failing proves they do not.
    """
    sig = d.sig
    checks: list[ValidationCheck] = []

    want = sig.curves_per_family
    sizes_ok = all(len(d.family(f)) == want for f in _FAMILIES)
    checks.append(
        ValidationCheck(
            "family_sizes",
            sizes_ok,
            f"each family needs {want} curves; got "
            f"{[len(d.family(f)) for f in _FAMILIES]}",
        )
    )

    lengths_ok = all(len(c) == sig.n for f in _FAMILIES for c in d.family(f))
    checks.append(
        ValidationCheck(
            "curve_lengths",
            lengths_ok,
            f"every curve class needs length n={sig.n}",
        )
    )

    if not lengths_ok:
        for name in ("intra_family_disjoint", "family_saturated_basis", "k_bounds"):
            checks.append(ValidationCheck(name, False, "not evaluated: malformed curves"))
        return ValidationReport(tuple(checks))

    bad_pairs = []
    for f in _FAMILIES:
        fam = d.family(f)
        q = q_matrix(sig, fam, fam)
        if not q.is_zero:
            bad_pairs.append(f)
    checks.append(
        ValidationCheck(
            "intra_family_disjoint",
            not bad_pairs,
            "curves within one family must have zero pairwise intersection"
            + (f"; violated in {bad_pairs}" if bad_pairs else ""),
        )
    )

    bad_fams = []
    for f in _FAMILIES:
        lat = l_lattice(d, f)
        if lat.rank != want or not lat.is_saturated():
            bad_fams.append(f)
    checks.append(
        ValidationCheck(
            "family_saturated_basis",
            not bad_fams,
            f"each family must span a saturated rank-{want} lattice"
            + (f"; violated in {bad_fams}" if bad_fams else ""),
        )
    )

    if d.arcs is not None:
        shape_ok = d.arcs.rows == sig.n and d.arcs.cols == sig.n
        uni_ok = shape_ok and is_unimodular(d.arcs)
        checks.append(
            ValidationCheck(
                "arcs_unimodular",
                uni_ok,
                f"arc matrix must be {sig.n}x{sig.n} unimodular",
            )
        )

    inferred = infer_k(d)
    lo, hi = sig.l, sig.page_rank
    bounds_ok = all(lo <= ki <= hi for ki in inferred)
    checks.append(
        ValidationCheck(
            "k_bounds",
            bounds_ok,
            f"inferred k={inferred} must sit in [{lo}, {hi}]",
        )
    )

    if d.k is not None:
        checks.append(
            ValidationCheck(
                "k_matches_supplied",
                tuple(d.k) == inferred,
                f"supplied k={tuple(d.k)} vs inferred k={inferred}",
            )
        )

    return ValidationReport(tuple(checks))


def validate_matrices(m: DiagramMatrices) -> ValidationReport:
    """Shape and consistency checks for matrix-mode input."""
    sig = m.sig
    c = sig.curves_per_family
    checks: list[ValidationCheck] = []

    shapes = {
        "q_gamma_beta": (m.q_gamma_beta, c, c),
        "q_alpha_gamma": (m.q_alpha_gamma, c, c),
        "q_a_gamma": (m.q_a_gamma, sig.l, c),
    }
    if m.q_beta_alpha is not None:
        shapes["q_beta_alpha"] = (m.q_beta_alpha, c, c)
    bad = [
        f"{name} is {mat.rows}x{mat.cols}, expected {r}x{cc}"
        for name, (mat, r, cc) in shapes.items()
        if (mat.rows, mat.cols) != (r, cc)
    ]
    checks.append(
        ValidationCheck("matrix_shapes", not bad, "; ".join(bad) if bad else "all shapes match")
    )

    k_ok = sig.l <= m.k1 <= sig.page_rank
    checks.append(
        ValidationCheck(
            "k1_bounds",
            k_ok,
            f"k1={m.k1} must sit in [{sig.l}, {sig.page_rank}]",
        )
    )

    if m.q_beta_alpha is not None and not bad and k_ok:
        # the first k1 - l alpha curves are the ones shared with beta
        # (page_basis); each pairs to zero against all of beta, so those
        # columns vanish and the rank is at most c - (k1 - l)
        shared = m.k1 - sig.l
        rank = hermite_column_form(m.q_beta_alpha).cols
        limit = c - shared
        stray = [j for j in range(shared) if any(m.q_beta_alpha.column(j))]
        if rank > limit:
            detail = f"rank {rank} exceeds {limit} allowed by k1={m.k1}"
        elif stray:
            detail = (f"alpha curves {stray} pair nonzero with beta, but matrix mode "
                      f"takes the first k1-l={shared} alpha curves as shared with beta")
        else:
            detail = f"rank {rank} within bound {limit}"
        checks.append(ValidationCheck("q_beta_alpha_rank", not stray, detail))

    if m.k is not None:
        checks.append(
            ValidationCheck(
                "k_matches_supplied",
                m.k[0] == m.k1 and all(sig.l <= ki <= sig.page_rank for ki in m.k),
                f"supplied k={tuple(m.k)} needs k_1 = k1={m.k1} and every entry in "
                f"[{sig.l}, {sig.page_rank}]",
            )
        )

    return ValidationReport(tuple(checks))


def require_valid(d: Diagram | DiagramMatrices) -> ValidationReport:
    """The validation report of either mode; raises DiagramError on any failure."""
    report = d.validation
    if not report.ok:
        what = "matrix data" if isinstance(d, DiagramMatrices) else "diagram"
        msgs = "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
        raise DiagramError(f"{what} rejected: {msgs}")
    return report
