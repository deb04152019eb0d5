"""Deterministic diagram corpus shared by the law tests.

Entries come in three flavors: boundary-page-only diagrams (no curves),
block-pattern diagrams built from one curve triple per handle pair, and
standard-position diagrams that also carry an arc system.  Some entries are
copies of a base entry moved by curve transvections or handle slides; those
record the base name so tests can assert invariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from trihom.exactalg import IntMatrix, Lattice, hermite_solver, quotient_presentation
from trihom.homology import ChainComplex, HomologyResult
from trihom.surface import Diagram, j_matrix

Entries = list[tuple[int, int]]
BlockPattern = Callable[[int, int], tuple[Entries, Entries, Entries]]

PATTERNS: dict[str, BlockPattern] = {
    # one triple of curve supports per handle pair (x, y)
    "P1": lambda x, y: ([(x, 1)], [(x, 1)], [(x, 1)]),
    "P2": lambda x, y: ([(x, 1)], [(y, 1)], [(x, 1), (y, 1)]),
    "P3": lambda x, y: ([(x, 1)], [(x, 1)], [(y, 1)]),
    "P4": lambda x, y: ([(x, 1)], [(y, 1)], [(y, 1)]),
    "P5": lambda x, y: ([(x, 1)], [(y, 1)], [(x, 1)]),
}


def torsion_pattern(m: int) -> BlockPattern:
    # gamma wraps the second handle curve m times, producing Z/m torsion
    return lambda x, y: ([(x, 1)], [(x, 1)], [(x, 1), (y, m)])


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    diagram: Diagram
    base: str | None = None

    @property
    def has_arcs(self) -> bool:
        return self.diagram.arcs is not None


def _vec(n: int, entries: Entries) -> list[int]:
    v = [0] * n
    for idx, coeff in entries:
        v[idx] += coeff
    return v


def _unit(n: int, idx: int) -> list[int]:
    return _vec(n, [(idx, 1)])


def _outer(a: Sequence[int], b: Sequence[int]) -> IntMatrix:
    return IntMatrix.from_rows([[ai * bj for bj in b] for ai in a])


def _add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return IntMatrix.from_rows(
        [
            [a.entry(i, j) + b.entry(i, j) for j in range(a.cols)]
            for i in range(a.rows)
        ]
    )


def det_int(m: IntMatrix) -> int:
    """Exact determinant by fraction-free elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    work = [[Fraction(m.entry(i, j)) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next(
            (r for r in range(col, n) if work[r][col] != 0), None
        )
        if pivot_row is None:
            return 0
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        pivot = work[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = work[r][col] / pivot
            work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    assert det.denominator == 1
    return int(det)


def signature_int(m: IntMatrix) -> int:
    """Signature of a symmetric integer matrix by exact congruence
    diagonalization over the rationals (Sylvester's law of inertia)."""
    work = [[Fraction(x) for x in m.row(i)] for i in range(m.rows)]
    sig = 0
    while work:
        n = len(work)
        i = next((i for i in range(n) if work[i][i] != 0), None)
        if i is None:
            pair = next(((i, j) for i in range(n) for j in range(n) if work[i][j] != 0), None)
            if pair is None:
                break  # the zero form adds nothing
            # with a zero diagonal, adding row and column j to i leaves 2 w_ij there
            i, j = pair
            work[i] = [a + b for a, b in zip(work[i], work[j])]
            for row in work:
                row[i] += row[j]
        pivot = work[i][i]
        sig += 1 if pivot > 0 else -1
        rest = [k for k in range(n) if k != i]
        work = [[work[r][c] - work[r][i] * work[i][c] / pivot for c in rest] for r in rest]
    return sig


def homology_by_kernels(c: ChainComplex) -> HomologyResult:
    """Reference homology H_i = ker d_i / im d_{i+1}: the kernel and the
    image of each boundary map from one Hermite form of [d; I], and each
    quotient from the Smith form of its relation matrix."""
    solvers = [hermite_solver(m) for m in c.boundaries]
    kernels = [Lattice.standard(c.ranks[0])] + [s.kernel for s in solvers]
    images = [s.span for s in solvers] + [Lattice.zero(c.ranks[3])]
    groups = [quotient_presentation(k, im) for k, im in zip(kernels, images)]
    return HomologyResult(*groups, source=c.source)


def transvect(d: Diagram, c: Sequence[int]) -> Diagram:
    """Twist every curve along the class c and transport the arc system.

    Curves map by M = I + c (Jc)^T, which preserves the surface pairing,
    so all pairings between moved curves match the originals.  Arc classes
    must keep their pairings against the moved curves, which forces the
    inverse transpose I - (Jc) c^T.
    """
    sig = d.sig
    if len(c) != sig.n:
        raise ValueError(f"transvection class needs length {sig.n}")
    u = j_matrix(sig).matvec(tuple(c))
    m = _add(IntMatrix.identity(sig.n), _outer(c, u))
    arcs = None
    if d.arcs is not None:
        minv_t = _add(IntMatrix.identity(sig.n), _outer(u, c).neg())
        arcs = [list(minv_t.matvec(d.arcs.column(j))) for j in range(d.arcs.cols)]
    return Diagram.build(
        sig.g,
        sig.p,
        sig.b,
        [list(m.matvec(x)) for x in d.alpha],
        [list(m.matvec(x)) for x in d.beta],
        [list(m.matvec(x)) for x in d.gamma],
        k=d.k,
        arcs=arcs,
        standard_position=d.standard_position,
    )


def slide(d: Diagram, family: str, target: int, source: int, coeff: int = 1) -> Diagram:
    """Add one curve of a family to another curve of the same family."""
    if target == source:
        raise ValueError("a curve cannot slide over itself")
    fams = {name: [list(v) for v in d.family(name)] for name in ("alpha", "beta", "gamma")}
    curves = fams[family]
    curves[target] = [
        t + coeff * s for t, s in zip(curves[target], curves[source])
    ]
    arcs = None
    if d.arcs is not None:
        arcs = [list(d.arcs.column(j)) for j in range(d.arcs.cols)]
    return Diagram.build(
        d.sig.g,
        d.sig.p,
        d.sig.b,
        fams["alpha"],
        fams["beta"],
        fams["gamma"],
        k=d.k,
        arcs=arcs,
        standard_position=d.standard_position,
    )


def mirror(d: Diagram) -> Diagram:
    """The diagram of the mirror -X: the two coordinates of every handle
    pair swapped in every curve and arc class. That reverses the surface's
    orientation, so every curve-curve pairing changes sign. An omitted arc
    system stands for the dual basis, whose mirror is written out."""
    def swap(v: Sequence[int]) -> list[int]:
        v = list(v)
        for h in range(d.sig.g):
            v[2 * h], v[2 * h + 1] = v[2 * h + 1], v[2 * h]
        return v

    fams = {name: [swap(v) for v in d.family(name)] for name in ("alpha", "beta", "gamma")}
    arcs = d.arcs if d.arcs is not None else IntMatrix.identity(d.sig.n)
    return Diagram.build(
        d.sig.g,
        d.sig.p,
        d.sig.b,
        fams["alpha"],
        fams["beta"],
        fams["gamma"],
        k=d.k,
        arcs=[swap(arcs.column(j)) for j in range(arcs.cols)],
        standard_position=d.standard_position,
    )


def boundary_sum(x: Diagram, y: Diagram) -> Diagram:
    """A diagram of the boundary connected sum of X and Y, on the surface
    of signature (g1+g2, p1+p2, b1+b2-1).

    Coordinates run over X's handles, Y's handles, X's boundary classes,
    then Y's. Each family is X's curves, then Y's. The arcs are X's special
    arcs, Y's special arcs, then X's other arcs and Y's; an omitted arc
    system stands for the dual basis and is written out. The sum carries
    the standard-position assertion when both summands do.
    """
    hx, hy = 2 * x.sig.g, 2 * y.sig.g
    bx, by = x.sig.b - 1, y.sig.b - 1

    def from_x(v: Sequence[int]) -> list[int]:
        return [*v[:hx], *[0] * hy, *v[hx:], *[0] * by]

    def from_y(v: Sequence[int]) -> list[int]:
        return [*[0] * hx, *v[:hy], *[0] * bx, *v[hy:]]

    def arc_columns(d: Diagram, embed, special: bool) -> list[list[int]]:
        arcs = d.arcs if d.arcs is not None else IntMatrix.identity(d.sig.n)
        cols = range(d.sig.l) if special else range(d.sig.l, d.sig.n)
        return [embed(arcs.column(j)) for j in cols]

    fams = {
        name: [from_x(v) for v in x.family(name)] + [from_y(v) for v in y.family(name)]
        for name in ("alpha", "beta", "gamma")
    }
    arcs = [cols for special in (True, False)
            for d, embed in ((x, from_x), (y, from_y))
            for cols in arc_columns(d, embed, special)]
    return Diagram.build(
        x.sig.g + y.sig.g,
        x.sig.p + y.sig.p,
        x.sig.b + y.sig.b - 1,
        fams["alpha"],
        fams["beta"],
        fams["gamma"],
        arcs=arcs,
        standard_position=x.standard_position and y.standard_position,
    )


def standard_arcs(g: int, b: int) -> list[list[int]]:
    # boundary-parallel arcs come first so they fill the l page slots
    n = 2 * g + b - 1
    order = list(range(2 * g, n)) + list(range(2 * g))
    return [_unit(n, idx) for idx in order]


def blocks_diagram(
    g: int, b: int, patterns: Sequence[BlockPattern], p: int = 0
) -> Diagram:
    if len(patterns) != g - p:
        raise ValueError("need one pattern per curve handle")
    n = 2 * g + b - 1
    alpha, beta, gamma = [], [], []
    for i, pattern in enumerate(patterns):
        pa, pb, pg = pattern(2 * i, 2 * i + 1)
        alpha.append(_vec(n, pa))
        beta.append(_vec(n, pb))
        gamma.append(_vec(n, pg))
    return Diagram.build(g, p, b, alpha, beta, gamma)


def standard_diagram(
    g: int,
    b: int,
    shared: int,
    gamma_patterns: Sequence[BlockPattern],
) -> Diagram:
    """Standard-position diagram: alpha on odd handles, beta shared or dual."""
    n = 2 * g + b - 1
    alpha = [_unit(n, 2 * i) for i in range(g)]
    beta = [
        _unit(n, 2 * i) if i < shared else _unit(n, 2 * i + 1) for i in range(g)
    ]
    gamma = [
        _vec(n, pattern(2 * i, 2 * i + 1)[2])
        for i, pattern in enumerate(gamma_patterns)
    ]
    return Diagram.build(
        g, 0, b, alpha, beta, gamma,
        arcs=standard_arcs(g, b), standard_position=True,
    )


def page_only_diagram(g: int, b: int) -> Diagram:
    # every handle belongs to the page; arcs are the dual basis in order
    n = 2 * g + b - 1
    return Diagram.build(
        g, g, b, [], [], [],
        arcs=[_unit(n, i) for i in range(n)], standard_position=True,
    )


def corpus() -> list[CorpusEntry]:
    entries: list[CorpusEntry] = []

    def add(name: str, diagram: Diagram, base: str | None = None) -> Diagram:
        entries.append(CorpusEntry(name, diagram, base))
        return diagram

    # page-only signatures, including the empty surface of the 4-ball
    add("ball", page_only_diagram(0, 1))
    add("page-torus", page_only_diagram(1, 1))
    add("page-torus-b2", page_only_diagram(1, 2))
    add("page-genus2-b3", page_only_diagram(2, 3))

    # torsion examples and their moved copies
    tors = add(
        "torsion2-g2b1",
        Diagram.build(
            2, 0, 1,
            [[1, 0, 0, 0], [0, 0, 1, 0]],
            [[1, 0, 0, 0], [0, 0, 0, 1]],
            [[1, 2, 0, 0], [0, 0, 1, 0]],
        ),
    )
    tv1 = add("torsion2-g2b1-tv1", transvect(tors, (0, 1, 0, 0)), base="torsion2-g2b1")
    add("torsion2-g2b1-tv2", transvect(tv1, (1, 0, 1, 0)), base="torsion2-g2b1")
    paged = add(
        "paged-torsion-g2p1",
        Diagram.build(2, 1, 1, [[1, 0, 0, 0]], [[0, 0, 1, 0]], [[1, 2, 1, 0]]),
    )
    add("paged-torsion-g2p1-tv", transvect(paged, (0, 0, 0, 1)), base="paged-torsion-g2p1")

    # standard-position family with transported arc systems
    add("std-g1b2-sum", standard_diagram(1, 2, 0, [PATTERNS["P2"]]))
    add("std-g1b2-shared", standard_diagram(1, 2, 1, [PATTERNS["P3"]]))
    sums = add(
        "std-g2b2-sums", standard_diagram(2, 2, 0, [PATTERNS["P2"], PATTERNS["P2"]])
    )
    add(
        "std-g2b2-sums-tv",
        transvect(transvect(sums, (0, 1, 1, 0, 0)), (1, 0, 0, 1, 0)),
        base="std-g2b2-sums",
    )
    add(
        "std-g2b2-mixed",
        standard_diagram(2, 2, 1, [torsion_pattern(2), PATTERNS["P2"]]),
    )
    twists = add(
        "std-g2b3-twists", standard_diagram(2, 3, 0, [PATTERNS["P4"], PATTERNS["P5"]])
    )
    add(
        "std-g2b3-twists-tv",
        transvect(twists, (0, 0, 1, 0, 1, 0)),
        base="std-g2b3-twists",
    )
    add(
        "std-g3b2-shared",
        standard_diagram(3, 2, 3, [PATTERNS["P3"]] * 3),
    )

    # block-pattern mixes without arc systems
    mix = add("mix-p2p3", blocks_diagram(2, 1, [PATTERNS["P2"], PATTERNS["P3"]]))
    add("mix-p2p3-tv", transvect(mix, (1, 1, 0, 0)), base="mix-p2p3")
    add("mix-p4p5", blocks_diagram(2, 1, [PATTERNS["P4"], PATTERNS["P5"]]))
    add("mix-torsion3-b2", blocks_diagram(2, 2, [torsion_pattern(3), PATTERNS["P2"]]))
    blocks3 = add(
        "mix-blocks3-g3b2",
        blocks_diagram(3, 2, [PATTERNS["P1"], PATTERNS["P2"], torsion_pattern(2)]),
    )
    add(
        "mix-blocks3-slide",
        slide(slide(blocks3, "gamma", 1, 2), "alpha", 2, 0),
        base="mix-blocks3-g3b2",
    )
    add(
        "mix-five-g5",
        blocks_diagram(5, 1, [PATTERNS[p] for p in ("P1", "P2", "P3", "P4", "P5")]),
    )

    return entries
