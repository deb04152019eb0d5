"""Exact linear algebra over the integers.

Immutable integer matrices, column-style Hermite form, lattice operations
(intersection, sum, quotient presentation, orthogonal complement) and Smith
normal form. Every lattice question (spans, kernels, intersections,
saturation, unimodularity, ranks, integer solves) is answered by a Hermite
form: one Hermite form of [A; I] gives the span, the kernel and one
solution of A x = b for any matrix A, unique when the columns are
independent. Smith forms serve only where the answer is a Smith form: the
invariant factors of a quotient and the basis they come with. Everything
runs on Python ints, so there is no overflow and no rounding anywhere.
Empty matrices (zero rows or zero columns) are legal inputs throughout.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Sequence


# ---------------------------------------------------------------------------
# matrices


def _ints(values: Sequence[Any]) -> tuple[int, ...]:
    """values as ints. Integer-like values (those with __index__, such as
    numpy integers) convert; a float or other non-integral value raises
    ValueError instead of being truncated."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        bad = next(x for x in values if not hasattr(type(x), "__index__"))
        raise ValueError(f"non-integer entry {bad!r}") from None


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, immutable.

    The constructor and from_rows/from_columns store every entry as an
    int in a tuple; matrices built here from entries that are already ints
    skip that scan.
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"negative matrix shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} does not match shape "
                f"{self.rows}x{self.cols}"
            )
        object.__setattr__(self, "entries", _ints(self.entries))

    @classmethod
    def _of(cls, rows: int, cols: int, entries: tuple[int, ...]) -> "IntMatrix":
        """A matrix from a tuple of rows * cols ints, without the checks."""
        m = object.__new__(cls)
        m.__dict__.update(rows=rows, cols=cols, entries=entries)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        nrows = len(rows)
        if nrows == 0:
            return cls(0, cols if cols is not None else 0, ())
        ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return cls._of(nrows, ncols, _ints([x for r in rows for x in r]))

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[Sequence[int]]) -> "IntMatrix":
        for c in columns:
            if len(c) != rows:
                raise ValueError(f"column length {len(c)} != ambient {rows}")
        if rows < 0:
            raise ValueError(f"negative matrix shape {rows}x{len(columns)}")
        return cls._of(rows, len(columns), _ints([x for row in zip(*columns) for x in row]))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        ent = tuple(x for j in range(self.cols) for x in self.column(j))
        return IntMatrix._of(self.cols, self.rows, ent)

    def neg(self) -> "IntMatrix":
        return IntMatrix._of(self.rows, self.cols, tuple(-e for e in self.entries))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        rows = [self.row(i) for i in range(self.rows)]
        cols = [other.column(j) for j in range(other.cols)]
        out = tuple(sum(map(operator.mul, r, c)) for r in rows for c in cols)
        return IntMatrix._of(self.rows, other.cols, out)

    def matvec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        rows = (self.row(i) for i in range(self.rows))
        return tuple(sum(a * x for a, x in zip(r, v)) for r in rows)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        ent = tuple(x for i in range(self.rows) for x in self.row(i) + other.row(i))
        return IntMatrix._of(self.rows, self.cols + other.cols, ent)

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return IntMatrix._of(self.rows + other.rows, self.cols, self.entries + other.entries)

    def take_rows(self, indices: Sequence[int]) -> "IntMatrix":
        indices = list(indices)
        if not all(0 <= i < self.rows for i in indices):
            raise IndexError(f"row index outside 0..{self.rows - 1}")
        ent = tuple(x for i in indices for x in self.row(i))
        return IntMatrix._of(len(indices), self.cols, ent)

    @property
    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entry(i, i) for i in range(min(self.rows, self.cols)))


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = D with U, V unimodular and D diagonal, nonnegative,
    each diagonal entry dividing the next."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix


def _snf_with_inverses(
    m: IntMatrix, transforms: bool = False
) -> tuple[IntMatrix | None, IntMatrix, IntMatrix | None, IntMatrix | None]:
    """Smith form, with its transforms when asked for.

    Returns (U, D, V, Uinv) with U m V = D and U Uinv = I; without
    transforms only D is computed and the others are None. One elimination
    reduces one matrix x: the rows of m, and with transforms each row
    followed by its identity row ([m | I]) and then the c identity rows of
    V ([m; I]). Row operations on the first r rows carry U along and column
    operations on the first c columns carry V; the V rows are only c long,
    as no row operation reaches them. Uinv is the transform of the Hermite
    solve of U, whose span is all of Z^r. Pivot rule: smallest nonzero
    absolute value in the active block, ties broken by lowest (row, col).
    The pivot sequence depends only on m, so D is the same with and
    without transforms.
    """
    r, c = m.rows, m.cols
    x = [list(m.row(i)) for i in range(r)]
    if transforms:
        x = [row + [int(i == k) for k in range(r)] for i, row in enumerate(x)]
        x += [[int(i == j) for j in range(c)] for i in range(c)]

    t = 0
    while t < min(r, c):
        pivot = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                e = x[i][j]
                if e != 0 and (best is None or abs(e) < best):
                    best = abs(e)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        x[t], x[pi] = x[pi], x[t]
        if pj != t:
            for row in x:
                row[t], row[pj] = row[pj], row[t]
        if x[t][t] < 0:
            x[t] = [-e for e in x[t]]
        top = x[t]
        p = top[t]
        dirty = False
        for i in range(t + 1, r):
            q = x[i][t] // p
            if q:
                x[i] = [a - q * b for a, b in zip(x[i], top)]
                dirty = dirty or x[i][t] != 0
        for j in range(t + 1, c):
            q = top[j] // p
            if q:
                for row in x:
                    row[j] -= q * row[t]
                dirty = dirty or top[j] != 0
        if dirty:
            continue  # a remainder smaller than the pivot appeared; re-pick
        for i in range(t + 1, r):
            if any(x[i][j] % p for j in range(t + 1, c)):
                # drag the non-divisible row into the pivot row and re-pick
                x[t] = [a + b for a, b in zip(top, x[i])]
                break
        else:
            t += 1

    d = IntMatrix.from_rows([row[:c] for row in x[:r]], cols=c)
    if not transforms:
        return None, d, None, None
    u = IntMatrix.from_rows([row[c:] for row in x[:r]], cols=r)
    return u, d, IntMatrix.from_rows(x[r:], cols=c), hermite_solver(u).transform


def snf(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with both transforms: U m V = D."""
    u, d, v, _ = _snf_with_inverses(m, transforms=True)
    return SmithDecomposition(u, d, v)


# ---------------------------------------------------------------------------
# Hermite form and lattices


def _from_columns(rows: int, columns: Sequence[Sequence[int]]) -> IntMatrix:
    """IntMatrix._of for columns of ints, each of length rows."""
    return IntMatrix._of(rows, len(columns), tuple(x for row in zip(*columns) for x in row))


def _reduce_later(basis: dict[int, list[int]], r: int) -> None:
    """Reduce the basis column with pivot row r into [0, pivot) at every
    later pivot row, top down."""
    col = basis[r]
    for pr in sorted(basis):
        if pr > r:
            p = basis[pr]
            q = col[pr] // p[pr]
            if q:
                col = [x - q * y for x, y in zip(col, p)]
    basis[r] = col


def _echelon(columns: Iterable[list[int]], n: int) -> dict[int, list[int]]:
    """Column echelon basis of the span of columns (each of length n),
    keyed by pivot row, with positive pivots.

    Columns go in one at a time (Kannan-Bachem order). An incoming column
    that meets a basis column at its pivot row either drops a multiple of
    it, when that pivot divides its entry, or merges with it by a
    unimodular extended-gcd step that leaves the gcd in the basis column
    and a zero in the incoming one; the incoming column then goes on down.
    A basis column that is made or changed is reduced at once at every
    later pivot row, which keeps entries from growing. Zero and dependent
    columns vanish.
    """
    basis: dict[int, list[int]] = {}
    for v in columns:
        r = 0
        while True:
            r = next((i for i in range(r, n) if v[i]), n)
            if r == n:
                break
            b = v[r]
            p = basis.get(r)
            if p is None:
                basis[r] = v if b > 0 else [-x for x in v]
                _reduce_later(basis, r)
                break
            a = p[r]
            if b % a == 0:
                q = b // a
                v = [x - q * y for x, y in zip(v, p)]
            else:
                # s a + t b = g; the 2x2 transform [[s, t], [-b/g, a/g]] has determinant 1
                g = math.gcd(a, b)
                m = abs(b) // g
                s = pow(a // g, -1, m) if m > 1 else 0
                t = (g - s * a) // b
                ag, bg = a // g, b // g
                basis[r] = [s * x + t * y for x, y in zip(p, v)]
                v = [ag * y - bg * x for x, y in zip(p, v)]
                _reduce_later(basis, r)
            r += 1
    return basis


def _hermite(basis: dict[int, list[int]]) -> list[list[int]]:
    """An echelon basis in pivot order with every entry left of a pivot
    reduced into [0, pivot): the canonical Hermite basis."""
    rows = sorted(basis)
    cols = [basis[r] for r in rows]
    for j, r in enumerate(rows):
        p = cols[j]
        for i in range(j):
            q = cols[i][r] // p[r]
            if q:
                cols[i] = [x - q * y for x, y in zip(cols[i], p)]
    return cols


def _with_identity(m: IntMatrix) -> list[list[int]]:
    """The columns of [m; I]."""
    c = m.cols
    return [list(m.column(j)) + [int(i == j) for i in range(c)] for j in range(c)]


def _zero_top(basis: dict[int, list[int]], top: int) -> list[list[int]]:
    """The Hermite basis of the sublattice of vectors vanishing in the
    first top rows, with those rows cut off. By the echelon shape these are
    exactly the basis columns with pivot row top or below."""
    return [col[top:] for col in _hermite({r: c for r, c in basis.items() if r >= top})]


def hermite_column_form(m: IntMatrix) -> IntMatrix:
    """Canonical column Hermite form of the lattice spanned by the columns.

    Output columns have strictly increasing pivot rows, positive pivots,
    entries in each pivot row to the left of the pivot reduced into
    [0, pivot). Zero and dependent columns collapse away, so the result
    is a basis and is unique for the column span.
    """
    cols = [list(m.column(j)) for j in range(m.cols)]
    return _from_columns(m.rows, _hermite(_echelon(cols, m.rows)))


def is_unimodular(m: IntMatrix) -> bool:
    """True iff m is square with determinant +-1: its columns span Z^rows."""
    return m.rows == m.cols and hermite_column_form(m) == IntMatrix.identity(m.rows)


@dataclass(frozen=True)
class Lattice:
    """Subgroup of Z^ambient_rank, stored via its canonical Hermite basis."""

    ambient_rank: int
    basis: IntMatrix

    def __post_init__(self) -> None:
        if self.basis.rows != self.ambient_rank:
            raise ValueError(
                f"basis has {self.basis.rows} rows, ambient rank is {self.ambient_rank}"
            )

    @classmethod
    def from_generators(cls, ambient_rank: int, generators: Iterable[Sequence[int]]) -> "Lattice":
        gens = [list(g) for g in generators]
        mat = IntMatrix.from_columns(ambient_rank, gens)
        return cls(ambient_rank, hermite_column_form(mat))

    @classmethod
    def from_matrix_columns(cls, m: IntMatrix) -> "Lattice":
        return cls(m.rows, hermite_column_form(m))

    @classmethod
    def standard(cls, ambient_rank: int) -> "Lattice":
        return cls(ambient_rank, IntMatrix.identity(ambient_rank))

    @classmethod
    def zero(cls, ambient_rank: int) -> "Lattice":
        return cls(ambient_rank, IntMatrix(ambient_rank, 0, ()))

    @property
    def rank(self) -> int:
        return self.basis.cols

    def generators(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.basis.column(j) for j in range(self.basis.cols))

    @cached_property
    def _pivots(self) -> list[tuple[int, int]]:
        """(row, value) of each basis column's pivot."""
        out = []
        for j in range(self.basis.cols):
            col = self.basis.column(j)
            i = next(k for k, x in enumerate(col) if x != 0)
            out.append((i, col[i]))
        return out

    def contains(self, v: Sequence[int]) -> bool:
        return self.coordinates_of(v) is not None

    def coordinates_of(self, v: Sequence[int]) -> tuple[int, ...] | None:
        """Integer coordinates of v in the canonical basis, None if outside."""
        if len(v) != self.ambient_rank:
            raise ValueError(f"vector length {len(v)} != ambient rank {self.ambient_rank}")
        w = list(_ints(v))
        coords = [0] * self.rank
        for j, (pr, p) in enumerate(self._pivots):
            if w[pr] % p:
                return None
            q = w[pr] // p
            coords[j] = q
            if q:
                col = self.basis.column(j)
                w = [x - q * y for x, y in zip(w, col)]
        return tuple(coords) if all(x == 0 for x in w) else None

    def is_saturated(self) -> bool:
        """True iff Z^n / self is torsion-free: iff the gcd of the basis's
        maximal minors is 1, iff the rows of the basis span Z^rank."""
        return hermite_column_form(self.basis.transpose()) == IntMatrix.identity(self.rank)


class HermiteSolver:
    """Span, kernel and integer solve of A x = b for any matrix A.

    The Hermite form of [A; I] has columns [H; W] with nonzero top and
    [0; K] with zero top. H = A W is the canonical basis of the column span
    of A, K the canonical basis of its kernel, and x = W c solves A x = b
    when c are the coordinates of b in H. That is one solution; the others
    differ from it by the kernel, so it is unique when the columns of A are
    independent. (A plain class: a dataclass would add about a millisecond
    to every start.)
    """

    __slots__ = ("span", "transform", "kernel")

    def __init__(self, span: Lattice, transform: IntMatrix, kernel: Lattice) -> None:
        self.span = span
        self.transform = transform
        self.kernel = kernel

    def solve(self, b: Sequence[int]) -> tuple[int, ...] | None:
        """One integer solution x of A x = b, or None if none exists."""
        c = self.span.coordinates_of(b)
        return None if c is None else self.transform.matvec(c)


def hermite_solver(m: IntMatrix) -> HermiteSolver:
    """The HermiteSolver of any matrix m, from one Hermite form of [m; I]:
    its solve gives one solution, unique when the columns are independent."""
    n, k = m.rows, m.cols
    cols = _hermite(_echelon(_with_identity(m), n + k))
    # the columns of [m; I] span {(m x, x)}; in pivot order the zero-top
    # columns (0, x) with m x = 0 come last, already in Hermite form
    r = sum(1 for col in cols if any(col[:n]))
    span = Lattice(n, _from_columns(n, [col[:n] for col in cols[:r]]))
    kernel = Lattice(k, _from_columns(k, [col[n:] for col in cols[r:]]))
    return HermiteSolver(span, _from_columns(k, [col[n:] for col in cols[:r]]), kernel)


def kernel_basis(m: IntMatrix) -> Lattice:
    """Integer kernel {x : m x = 0} as a lattice in Z^cols. Always saturated."""
    return hermite_solver(m).kernel


def solve_integer(m: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution x of m x = b, or None if none exists; unique
    when the columns of m are independent."""
    return hermite_solver(m).solve(b)


def lattice_intersect(a: Lattice, b: Lattice) -> Lattice:
    """Intersection of two lattices in the same ambient Z^n.

    The columns of [[A, B], [A, 0]] span {(A x + B y, A x)}; those of its
    Hermite form with zero top have A x = -B y, so their bottoms are the
    canonical basis of L(A) cap L(B).
    """
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient rank mismatch")
    n = a.ambient_rank
    if a.rank == 0 or b.rank == 0:
        return Lattice.zero(n)
    zero = [0] * n
    cols = [list(y) + zero for y in b.generators()] + [list(x) * 2 for x in a.generators()]
    return Lattice(n, _from_columns(n, _zero_top(_echelon(cols, 2 * n), n)))


def lattice_sum(a: Lattice, b: Lattice) -> Lattice:
    """Smallest lattice containing both."""
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient rank mismatch")
    return Lattice.from_matrix_columns(a.basis.hstack(b.basis))


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: Z^free_rank + sum of Z/d_i.

    Invariant factors are >= 2 and each divides the next.
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for f in self.invariant_factors:
            if f < 2:
                raise ValueError(f"invariant factor {f} < 2")
            if prev is not None and f % prev:
                raise ValueError(f"invariant factors not a divisibility chain: {prev}, {f}")
            prev = f

    @classmethod
    def from_smith_diagonal(cls, rank: int, diagonal: Sequence[int]) -> "AbelianGroup":
        """Z^rank modulo relations whose Smith form has this diagonal."""
        return cls(rank - sum(1 for x in diagonal if x != 0), tuple(x for x in diagonal if x > 1))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{f}" for f in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def relation_matrix(numerator: Lattice, denominator: Lattice) -> IntMatrix:
    """Coordinates of the denominator's basis in the numerator's canonical
    basis, as columns: the relations of numerator / denominator. Requires
    inclusion."""
    if numerator.ambient_rank != denominator.ambient_rank:
        raise ValueError("ambient rank mismatch")
    coords = []
    for g in denominator.generators():
        x = numerator.coordinates_of(g)
        if x is None:
            raise ValueError(f"denominator generator {list(g)} not inside numerator")
        coords.append(x)
    return _from_columns(numerator.rank, coords)


def quotient_presentation(numerator: Lattice, denominator: Lattice) -> AbelianGroup:
    """numerator / denominator as an abstract group. Requires inclusion."""
    diag = _snf_with_inverses(relation_matrix(numerator, denominator))[1].diagonal()
    return AbelianGroup.from_smith_diagonal(numerator.rank, diag)


def orthogonal_complement(lat: Lattice) -> Lattice:
    """All y in Z^n with y^T x = 0 for every x in lat."""
    return kernel_basis(lat.basis.transpose())


# ---------------------------------------------------------------------------
# mod 2


def solve_mod2(m: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """One solution of m x = b over GF(2), or None. Free variables pin to 0."""
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    r, c = m.rows, m.cols
    rows = [[m.entry(i, j) & 1 for j in range(c)] + [b[i] & 1] for i in range(r)]
    pivots: list[tuple[int, int]] = []  # (row, col)
    pr = 0
    for col in range(c):
        sel = next((i for i in range(pr, r) if rows[i][col]), None)
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        for i in range(r):
            if i != pr and rows[i][col]:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[pr])]
        pivots.append((pr, col))
        pr += 1
        if pr == r:
            break
    for i in range(pr, r):
        if rows[i][c]:
            return None
    x = [0] * c
    for i, col in pivots:
        x[col] = rows[i][c]
    return tuple(x)
