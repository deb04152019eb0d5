"""Exact linear algebra over the integers.

Immutable integer matrices, Smith normal form with the transforms a caller
asks for (its factorization solves any number of right-hand sides),
column-style Hermite form, and lattice operations (intersection, sum,
quotient presentation, orthogonal complement). Everything runs on Python
ints, so there is no overflow and no rounding anywhere. Empty matrices
(zero rows or zero columns) are legal inputs throughout.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
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
    """Dense integer matrix, row-major, immutable."""

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
        for e in self.entries:
            if not isinstance(e, int):
                raise ValueError(f"non-integer entry {e!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        nrows = len(rows)
        if nrows == 0:
            return cls(0, cols if cols is not None else 0, ())
        ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return cls(nrows, ncols, _ints([x for r in rows for x in r]))

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[Sequence[int]]) -> "IntMatrix":
        for c in columns:
            if len(c) != rows:
                raise ValueError(f"column length {len(c)} != ambient {rows}")
        return cls(rows, len(columns), _ints([x for row in zip(*columns) for x in row]))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

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
        ent = tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows))
        return IntMatrix(self.cols, self.rows, ent)

    def neg(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-e for e in self.entries))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        rows = [self.row(i) for i in range(self.rows)]
        cols = [other.column(j) for j in range(other.cols)]
        out = tuple(sum(a * b for a, b in zip(r, c)) for r in rows for c in cols)
        return IntMatrix(self.rows, other.cols, out)

    def matvec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        rows = (self.row(i) for i in range(self.rows))
        return tuple(sum(a * x for a, x in zip(r, v)) for r in rows)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        rows = [list(self.row(i)) + list(other.row(i)) for i in range(self.rows)]
        return IntMatrix.from_rows(rows, cols=self.cols + other.cols)

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return IntMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def take_rows(self, indices: Sequence[int]) -> "IntMatrix":
        rows = [list(self.row(i)) for i in indices]
        return IntMatrix.from_rows(rows, cols=self.cols)

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
    each diagonal entry dividing the next.

    One factorization serves every right-hand side: solve(b) is the
    integer solve of A x = b.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def solve(self, b: Sequence[int]) -> tuple[int, ...] | None:
        """One integer solution x of A x = b, or None if none exists."""
        if len(b) != self.D.rows:
            raise ValueError(f"rhs length {len(b)} != rows {self.D.rows}")
        c = self.U.matvec(b)
        diag = self.D.diagonal()
        y = [0] * self.D.cols
        for i, ci in enumerate(c):
            di = diag[i] if i < len(diag) else 0
            if di == 0:
                if ci != 0:
                    return None
            else:
                if ci % di:
                    return None
                y[i] = ci // di
        return self.V.matvec(y)


def _add_row(x: list[list[int]], i: int, j: int, q: int) -> None:
    x[i] = [a + q * b for a, b in zip(x[i], x[j])]


def _add_col(x: list[list[int]], i: int, j: int, q: int) -> None:
    for row in x:
        row[i] += q * row[j]


def _swap_cols(x: list[list[int]], i: int, j: int) -> None:
    for row in x:
        row[i], row[j] = row[j], row[i]


def _snf_with_inverses(
    m: IntMatrix, keep: Sequence[str] = ()
) -> tuple[IntMatrix | None, IntMatrix, IntMatrix | None, IntMatrix | None]:
    """Smith form plus the transforms named in keep.

    Returns (U, D, V, Uinv) with U m V = D and U Uinv = I; a transform not
    named in keep ("U", "V", "Uinv") is None and costs nothing. Pivot
    rule: smallest nonzero absolute value in the active block, ties broken
    by lowest (row, col). The pivot sequence depends only on m, so D and
    every kept transform are pure functions of the input, whichever others
    are kept.
    """
    r, c = m.rows, m.cols
    a = m.to_rows()
    kept = {t: IntMatrix.identity(r if t in ("U", "Uinv") else c).to_rows() for t in keep}
    # row operations act on the rows of a and U and on the columns of Uinv;
    # column operations on the columns of a and V
    side = lambda t: [kept[t]] if t in kept else []
    rows_of, cols_of = [a] + side("U"), [a] + side("V")
    uinv = side("Uinv")

    def row_add(i: int, j: int, q: int) -> None:
        # row_i += q * row_j; Uinv pays with col_j -= q * col_i
        for x in rows_of:
            _add_row(x, i, j, q)
        for x in uinv:
            _add_col(x, j, i, -q)

    def col_add(i: int, j: int, q: int) -> None:
        # col_i += q * col_j
        for x in cols_of:
            _add_col(x, i, j, q)

    def row_swap(i: int, j: int) -> None:
        for x in rows_of:
            x[i], x[j] = x[j], x[i]
        for x in uinv:
            _swap_cols(x, i, j)

    def col_swap(i: int, j: int) -> None:
        for x in cols_of:
            _swap_cols(x, i, j)

    def row_negate(i: int) -> None:
        for x in rows_of:
            x[i] = [-e for e in x[i]]
        for x in uinv:
            for row in x:
                row[i] = -row[i]

    t = 0
    while t < min(r, c):
        pivot = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                e = a[i][j]
                if e != 0 and (best is None or abs(e) < best):
                    best = abs(e)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if a[t][t] < 0:
            row_negate(t)
        p = a[t][t]
        dirty = False
        for i in range(t + 1, r):
            if a[i][t]:
                row_add(i, t, -(a[i][t] // p))
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, c):
            if a[t][j]:
                col_add(j, t, -(a[t][j] // p))
                if a[t][j]:
                    dirty = True
        if dirty:
            continue  # a remainder smaller than the pivot appeared; re-pick
        stray = None
        for i in range(t + 1, r):
            if any(a[i][j] % p for j in range(t + 1, c)):
                stray = i
                break
        if stray is not None:
            row_add(t, stray, 1)  # drag the non-divisible row into the pivot row
            continue
        t += 1

    def out(name: str) -> IntMatrix | None:
        if name not in kept:
            return None
        return IntMatrix.from_rows(kept[name], cols=r if name in ("U", "Uinv") else c)

    return (out("U"), IntMatrix.from_rows(a, cols=c), out("V"), out("Uinv"))


def snf(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with both transforms: U m V = D."""
    u, d, v, _ = _snf_with_inverses(m, ("U", "V"))
    return SmithDecomposition(u, d, v)


def smith_diagonal(m: IntMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith form of m; no transform is built."""
    return _snf_with_inverses(m)[1].diagonal()


def is_unimodular(m: IntMatrix) -> bool:
    """True iff m is square with determinant +-1."""
    if m.rows != m.cols:
        return False
    return all(x == 1 for x in smith_diagonal(m))


# ---------------------------------------------------------------------------
# Hermite form and lattices


def hermite_column_form(m: IntMatrix) -> IntMatrix:
    """Canonical column Hermite form of the lattice spanned by the columns.

    Output columns have strictly increasing pivot rows, positive pivots,
    entries in each pivot row to the left of the pivot reduced into
    [0, pivot). Zero and dependent columns collapse away, so the result
    is a basis and is unique for the column span.
    """
    n = m.rows
    cols = [list(m.column(j)) for j in range(m.cols)]
    fixed = 0
    for row in range(n):
        while True:
            nz = [j for j in range(fixed, len(cols)) if cols[j][row] != 0]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: (abs(cols[j][row]), j))
            for j in nz:
                if j == j0:
                    continue
                q = cols[j][row] // cols[j0][row]
                if q:
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[j0])]
        nz = [j for j in range(fixed, len(cols)) if cols[j][row] != 0]
        if not nz:
            continue
        j0 = nz[0]
        cols[fixed], cols[j0] = cols[j0], cols[fixed]
        if cols[fixed][row] < 0:
            cols[fixed] = [-x for x in cols[fixed]]
        p = cols[fixed][row]
        for j in range(fixed):
            q = cols[j][row] // p
            if q:
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[fixed])]
        fixed += 1
    return IntMatrix.from_columns(n, cols[:fixed])


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

    def _pivots(self) -> list[tuple[int, int]]:
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
        for j, (pr, p) in enumerate(self._pivots()):
            if w[pr] % p:
                return None
            q = w[pr] // p
            coords[j] = q
            if q:
                col = self.basis.column(j)
                w = [x - q * y for x, y in zip(w, col)]
        return tuple(coords) if all(x == 0 for x in w) else None

    def is_saturated(self) -> bool:
        """True iff Z^n / self is torsion-free."""
        if self.rank == 0:
            return True
        return all(x == 1 for x in smith_diagonal(self.basis)[: self.rank])

    def saturation(self) -> "Lattice":
        """Smallest saturated lattice containing self."""
        perp = kernel_basis(self.basis.transpose())
        return kernel_basis(perp.basis.transpose())


def kernel_basis(m: IntMatrix) -> Lattice:
    """Integer kernel {x : m x = 0} as a lattice in Z^cols. Always saturated."""
    _, d, v, _ = _snf_with_inverses(m, ("V",))
    r = sum(1 for x in d.diagonal() if x != 0)
    cols = [list(v.column(j)) for j in range(r, m.cols)]
    return Lattice.from_generators(m.cols, cols)


def solve_integer(m: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution x of m x = b, or None if none exists."""
    return snf(m).solve(b)


def lattice_intersect(a: Lattice, b: Lattice) -> Lattice:
    """Intersection of two lattices in the same ambient Z^n."""
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient rank mismatch")
    n = a.ambient_rank
    if a.rank == 0 or b.rank == 0:
        return Lattice.zero(n)
    stacked = a.basis.hstack(b.basis.neg())
    ker = kernel_basis(stacked)
    upart = ker.basis.take_rows(range(a.rank))
    return Lattice.from_matrix_columns(a.basis.mul(upart))


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

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{f}" for f in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def quotient_presentation(numerator: Lattice, denominator: Lattice) -> AbelianGroup:
    """numerator / denominator as an abstract group. Requires inclusion."""
    if numerator.ambient_rank != denominator.ambient_rank:
        raise ValueError("ambient rank mismatch")
    coords = []
    for g in denominator.generators():
        x = numerator.coordinates_of(g)
        if x is None:
            raise ValueError(f"denominator generator {list(g)} not inside numerator")
        coords.append(list(x))
    diag = smith_diagonal(IntMatrix.from_columns(numerator.rank, coords))
    rank_rel = sum(1 for x in diag if x != 0)
    factors = tuple(x for x in diag if x > 1)
    return AbelianGroup(numerator.rank - rank_rel, factors)


def orthogonal_complement(lat: Lattice, pairing: IntMatrix) -> Lattice:
    """All y in Z^n with y^T pairing x = 0 for every x in lat."""
    if pairing.rows != lat.ambient_rank or pairing.cols != lat.ambient_rank:
        raise ValueError("pairing matrix must be square of the ambient rank")
    return kernel_basis(pairing.mul(lat.basis).transpose())


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
