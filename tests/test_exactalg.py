"""Integer linear algebra: frozen examples plus seeded invariant sweeps."""

import random

import numpy as np
import pytest

from trihom.exactalg import (
    AbelianGroup,
    IntMatrix,
    Lattice,
    SmithDecomposition,
    _snf_with_inverses,
    hermite_column_form,
    hermite_solver,
    is_unimodular,
    kernel_basis,
    lattice_intersect,
    lattice_sum,
    orthogonal_complement,
    quotient_presentation,
    snf,
    solve_integer,
    solve_mod2,
)


def mat(rows: list[list[int]]) -> IntMatrix:
    return IntMatrix.from_rows(rows)


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int = 9) -> IntMatrix:
    return mat([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


class TestIntMatrix:
    def test_row_major_round_trip(self) -> None:
        m = mat([[1, 2, 3], [4, 5, 6]])
        assert m.to_rows() == [[1, 2, 3], [4, 5, 6]]
        assert m.row(1) == (4, 5, 6)
        assert m.column(2) == (3, 6)
        assert m.entry(0, 1) == 2

    def test_from_columns_transposes(self) -> None:
        m = IntMatrix.from_columns(2, [(1, 2), (3, 4), (5, 6)])
        assert m.to_rows() == [[1, 3, 5], [2, 4, 6]]
        assert m.transpose().to_rows() == [[1, 2], [3, 4], [5, 6]]

    def test_mul_matches_hand_product(self) -> None:
        a = mat([[1, 2], [3, 4]])
        b = mat([[0, 1], [1, 0]])
        assert a.mul(b).to_rows() == [[2, 1], [4, 3]]
        assert a.matvec((1, 1)) == (3, 7)

    def test_stacking(self) -> None:
        a = mat([[1], [2]])
        b = mat([[3], [4]])
        assert a.hstack(b).to_rows() == [[1, 3], [2, 4]]
        assert a.vstack(b).to_rows() == [[1], [2], [3], [4]]

    def test_shape_mismatch_rejected(self) -> None:
        with pytest.raises(ValueError):
            mat([[1, 2], [3]])
        with pytest.raises(ValueError):
            mat([[1]]).mul(mat([[1, 2], [3, 4]]))

    def test_from_rows_rejects_non_integral_entries(self) -> None:
        with pytest.raises(ValueError, match=r"non-integer entry 1\.5"):
            mat([[1.5, 2]])
        assert mat([[np.int64(3), 2]]).to_rows() == [[3, 2]]

    def test_from_columns_rejects_non_integral_entries(self) -> None:
        with pytest.raises(ValueError, match=r"non-integer entry 1\.5"):
            IntMatrix.from_columns(2, [(1, 2), (1.5, 4)])
        assert IntMatrix.from_columns(1, [(np.int32(-2),)]).to_rows() == [[-2]]

    def test_constructor_rejects_bad_entries_and_shapes(self) -> None:
        with pytest.raises(ValueError, match=r"non-integer entry 1\.5"):
            IntMatrix(1, 1, (1.5,))
        with pytest.raises(ValueError, match="negative matrix shape"):
            IntMatrix.from_columns(-1, [])

    def test_constructor_stores_a_tuple_of_ints(self) -> None:
        # integer-like entries in any sequence are stored as ints in a tuple,
        # so the matrix equals and hashes like one built from ints
        m = IntMatrix(1, 3, [1, np.int64(-2), True])
        assert m.entries == (1, -2, 1)
        assert all(type(e) is int for e in m.entries)
        assert m == IntMatrix(1, 3, (1, -2, 1))
        assert hash(m) == hash(IntMatrix(1, 3, (1, -2, 1)))

    def test_take_rows_rejects_missing_rows(self) -> None:
        with pytest.raises(IndexError):
            mat([[1, 2]]).take_rows([1])

    def test_empty_shapes(self) -> None:
        z = IntMatrix.zeros(0, 3)
        assert z.rows == 0 and z.cols == 3
        assert z.transpose().rows == 3
        assert IntMatrix.identity(0).to_rows() == []


class TestSmithNormalForm:
    def test_frozen_2x2(self) -> None:
        # gcd of entries is 2 and |det| = 8, so the factors are 2 and 4
        d = snf(mat([[2, 4], [6, 8]])).D
        assert d.diagonal() == (2, 4)

    def test_frozen_diagonal_rearrangement(self) -> None:
        assert snf(mat([[4, 0], [0, 6]])).D.diagonal() == (2, 12)
        assert snf(mat([[6, 0], [0, 10]])).D.diagonal() == (2, 30)

    def test_frozen_rank_deficient(self) -> None:
        assert snf(mat([[0, 0], [0, 5]])).D.diagonal() == (5, 0)
        assert snf(mat([[1, 2], [2, 4]])).D.diagonal() == (1, 0)

    def test_identity_and_zero(self) -> None:
        assert snf(IntMatrix.identity(3)).D.to_rows() == IntMatrix.identity(3).to_rows()
        assert snf(IntMatrix.zeros(2, 3)).D.is_zero
        empty = snf(IntMatrix.zeros(0, 0))
        assert empty.D.rows == 0 and empty.D.cols == 0

    def test_decomposition_relation_seeded(self) -> None:
        rng = random.Random(20260817)
        rhs_rng = random.Random(424242)
        solvable_seen = set()
        matrices = [random_matrix(rng, rng.randint(0, 4), rng.randint(0, 4)) for _ in range(60)]
        # up to 6x6 with entries up to 2^40, where the transforms grow
        wide = random.Random(20261019)
        shapes = [(1, 6), (6, 1)] + [(wide.randint(1, 6), wide.randint(1, 6)) for _ in range(38)]
        matrices += [random_matrix(wide, r, c, bound=2 ** wide.randint(1, 40)) for r, c in shapes]
        for m in matrices:
            dec = snf(m)

            assert dec.U.mul(m).mul(dec.V).to_rows() == dec.D.to_rows()
            assert is_unimodular(dec.U)
            assert is_unimodular(dec.V)
            diag = dec.D.diagonal()
            for i in range(len(diag)):
                assert diag[i] >= 0
                for r in range(dec.D.rows):
                    for c in range(dec.D.cols):
                        if r != c:
                            assert dec.D.entry(r, c) == 0
            for a, b in zip(diag, diag[1:]):
                if b != 0:
                    assert a != 0 and b % a == 0

            # the inverse transform, and D is the same with and without transforms
            u, d, v, uinv = _snf_with_inverses(m, transforms=True)
            assert (u, d, v) == (dec.U, dec.D, dec.V)
            assert u.mul(uinv) == uinv.mul(u) == IntMatrix.identity(m.rows)
            assert _snf_with_inverses(m) == (None, d, None, None)

            # one factorization solves every right-hand side; the oracle for
            # solvability is membership in the Hermite lattice of the columns
            span = Lattice.from_matrix_columns(m)
            independent = smith_rank(m) == m.cols
            for _ in range(4):
                if rhs_rng.random() < 0.5:
                    b = m.matvec([rhs_rng.randint(-5, 5) for _ in range(m.cols)])
                else:
                    b = tuple(rhs_rng.randint(-9, 9) for _ in range(m.rows))
                x, y = smith_solve(dec, b), solve_integer(m, b)
                assert (x is not None) == (y is not None) == span.contains(b)
                if x is not None:
                    assert m.matvec(x) == m.matvec(y) == tuple(b)
                    if independent:
                        assert x == y
                solvable_seen.add(x is not None)
        assert solvable_seen == {True, False}


class TestHermiteColumnForm:
    def test_frozen_examples(self) -> None:
        assert hermite_column_form(mat([[1, 2], [3, 4]])).to_rows() == [[1, 0], [1, 2]]
        assert hermite_column_form(mat([[2, 4], [6, 8]])).to_rows() == [[2, 0], [2, 4]]
        assert hermite_column_form(mat([[0, 1], [1, 0]])).to_rows() == [[1, 0], [0, 1]]

    def test_canonical_under_column_operations(self) -> None:
        # the form depends only on the column span
        rng = random.Random(7)
        for _ in range(40):
            m = random_matrix(rng, 3, 3, bound=5)
            h = hermite_column_form(m)
            shuffled = IntMatrix.from_columns(
                3, [m.column(j) for j in rng.sample(range(3), 3)]
            )
            assert hermite_column_form(shuffled).to_rows() == h.to_rows()


# Oracles: the Euclid-round Hermite form and the Smith-transform kernel,
# intersection and solve that the column-insertion core replaced.


def euclid_hermite(m: IntMatrix) -> IntMatrix:
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
                if j != j0:
                    q = cols[j][row] // cols[j0][row]
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[j0])]
        nz = [j for j in range(fixed, len(cols)) if cols[j][row] != 0]
        if not nz:
            continue
        cols[fixed], cols[nz[0]] = cols[nz[0]], cols[fixed]
        if cols[fixed][row] < 0:
            cols[fixed] = [-x for x in cols[fixed]]
        for j in range(fixed):
            q = cols[j][row] // cols[fixed][row]
            cols[j] = [x - q * y for x, y in zip(cols[j], cols[fixed])]
        fixed += 1
    return IntMatrix.from_columns(n, cols[:fixed])


def smith_kernel(m: IntMatrix) -> IntMatrix:
    _, d, v, _ = _snf_with_inverses(m, transforms=True)
    r = sum(1 for x in d.diagonal() if x != 0)
    return euclid_hermite(IntMatrix.from_columns(m.cols, [v.column(j) for j in range(r, m.cols)]))


def smith_solve(dec: SmithDecomposition, b) -> tuple[int, ...] | None:
    """One solution of A x = b from U A V = D, or None: solve D y = U b."""
    diag = dec.D.diagonal()
    y = [0] * dec.D.cols
    for i, ci in enumerate(dec.U.matvec(b)):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if ci:
                return None
        elif ci % di:
            return None
        else:
            y[i] = ci // di
    return dec.V.matvec(y)


def smith_intersection(a: Lattice, b: Lattice) -> IntMatrix:
    if a.rank == 0 or b.rank == 0:
        return IntMatrix(a.ambient_rank, 0, ())
    ker = smith_kernel(a.basis.hstack(b.basis.neg()))
    return euclid_hermite(a.basis.mul(ker.take_rows(range(a.rank))))


def shaped(rows: int, cols: int, entries) -> IntMatrix:
    return IntMatrix(rows, cols, tuple(entries))


def mixed_matrix(rng: random.Random, rows: int, cols: int) -> IntMatrix:
    """Small, rank-deficient, 60-200-bit, or with a zero row and column."""
    kind = rng.randrange(4)
    if kind == 1 and rows and cols:
        r = rng.randint(0, min(rows, cols) - 1)
        left = shaped(rows, r, (rng.randint(-4, 4) for _ in range(rows * r)))
        return left.mul(shaped(r, cols, (rng.randint(-4, 4) for _ in range(r * cols))))
    if kind == 2:
        bits = rng.randint(60, 200)
        return shaped(rows, cols, (rng.randint(-(2**bits), 2**bits) for _ in range(rows * cols)))
    m = shaped(rows, cols, (rng.randint(-9, 9) for _ in range(rows * cols)))
    if kind == 3 and rows and cols:
        i, j = rng.randrange(rows), rng.randrange(cols)
        m = shaped(rows, cols, (0 if (r == i or c == j) else m.entry(r, c)
                                for r in range(rows) for c in range(cols)))
    return m


def unimodular(rng: random.Random, n: int) -> IntMatrix:
    """A random product of elementary column operations."""
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            q = rng.choice((-3, -2, -1, 1, 2, 3))
            cols[i] = [x + q * y for x, y in zip(cols[i], cols[j])]
        if rng.random() < 0.3:
            cols[i] = [-x for x in cols[i]]
    return IntMatrix.from_columns(n, cols)


class TestHermiteCoreAgainstOracles:
    SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1)] + [(r, c) for r in range(1, 6) for c in range(1, 6)]

    def cases(self, seed: int):
        rng = random.Random(seed)
        for rows, cols in self.SHAPES * 3:
            yield rng, mixed_matrix(rng, rows, cols)

    def test_hermite_matches_euclid_rounds(self) -> None:
        for _, m in self.cases(31):
            assert hermite_column_form(m) == euclid_hermite(m)

    def test_hermite_depends_only_on_the_span(self) -> None:
        for rng, m in self.cases(37):
            h = hermite_column_form(m)
            if m.cols:
                assert hermite_column_form(m.mul(unimodular(rng, m.cols))) == h
            cols = [m.column(j) for j in range(m.cols)]
            cols += [rng.choice(cols) for _ in range(rng.randint(0, 3))] if cols else []
            rng.shuffle(cols)
            assert hermite_column_form(IntMatrix.from_columns(m.rows, cols)) == h

    def test_kernel_matches_smith_kernel(self) -> None:
        for _, m in self.cases(41):
            ker = kernel_basis(m)
            assert ker.ambient_rank == m.cols
            assert ker.basis == smith_kernel(m)

    def test_intersection_matches_smith_intersection(self) -> None:
        rng = random.Random(43)
        for n in (0, 1, 2, 3, 4, 5) * 6:
            # both contain a multiple of a common part, so most meets are nonzero
            common = mixed_matrix(rng, n, rng.randint(min(n, 1), n))
            scaled = shaped(n, common.cols, (rng.choice((1, 2, -3)) * x for x in common.entries))
            a = Lattice.from_matrix_columns(common.hstack(mixed_matrix(rng, n, rng.randint(0, 2))))
            b = Lattice.from_matrix_columns(scaled.hstack(mixed_matrix(rng, n, rng.randint(0, 2))))
            met = lattice_intersect(a, b)
            assert met.ambient_rank == n
            assert met.basis == smith_intersection(a, b)

    def test_full_rank_solve_matches_smith_solve(self) -> None:
        # every shape: one solution exactly when Smith finds one, the unique
        # one when the columns are independent, and the Smith kernel
        rng = random.Random(47)
        solved = dependent = 0
        for rows, cols in self.SHAPES * 3:
            m = mixed_matrix(rng, rows, cols)
            solver, dec = hermite_solver(m), snf(m)
            full_rank = smith_rank(m) == m.cols
            assert solver.span == Lattice.from_matrix_columns(m)
            assert solver.kernel.ambient_rank == m.cols
            assert solver.kernel.basis == smith_kernel(m)
            inside = m.matvec([rng.randint(-5, 5) for _ in range(m.cols)])
            anywhere = tuple(rng.randint(-5, 5) for _ in range(m.rows))
            for b in (inside, anywhere):
                x = solver.solve(b)
                assert (x is None) == (smith_solve(dec, b) is None)
                if x is not None:
                    assert m.matvec(x) == b
                if full_rank:
                    assert x == smith_solve(dec, b)
            assert solver.solve(inside) is not None
            solved += full_rank
            dependent += not full_rank
        assert solved >= 20 and dependent >= 20


def smith_rank(m: IntMatrix) -> int:
    return sum(1 for x in _snf_with_inverses(m)[1].diagonal() if x != 0)


def smith_saturated(lat: Lattice) -> bool:
    """Z^n / lat is torsion-free iff every Smith invariant of its basis is 1."""
    return all(x == 1 for x in _snf_with_inverses(lat.basis)[1].diagonal())


def smith_unimodular(m: IntMatrix) -> bool:
    return m.rows == m.cols and all(x == 1 for x in _snf_with_inverses(m)[1].diagonal())


class TestHermitePredicatesAgainstSmith:
    def test_frozen_examples(self) -> None:
        assert not Lattice.from_generators(2, [(2, 0)]).is_saturated()
        assert Lattice.from_generators(2, [(2, 1)]).is_saturated()
        assert Lattice.zero(3).is_saturated()
        assert Lattice.zero(0).is_saturated()
        assert not is_unimodular(mat([[1, 0], [0, -2]]))
        assert is_unimodular(mat([[0, -1], [1, 0]]))

    def test_saturated_and_unimodular_agree_with_smith_seeded(self) -> None:
        rng = random.Random(59)
        seen = {True: 0, False: 0}
        shapes = [(0, 0), (0, 2), (2, 0)] + [(r, c) for r in range(1, 6) for c in range(1, 6)]
        for rows, cols in shapes * 4:
            # random, rank-deficient, 60-200-bit or zero-lined matrices, and
            # signed columns of unimodular matrices, which span saturated lattices
            u = unimodular(rng, rows).mul(shaped(rows, rows, (
                rng.choice((1, -1)) * int(i == j) for i in range(rows) for j in range(rows)
            )))
            picked = [u.column(j) for j in rng.sample(range(rows), min(rows, cols))]
            for m in (mixed_matrix(rng, rows, cols), u, IntMatrix.from_columns(rows, picked)):
                lat = Lattice.from_matrix_columns(m)
                assert lat.is_saturated() == smith_saturated(lat)
                assert is_unimodular(m) == smith_unimodular(m)
                seen[lat.is_saturated()] += 1
                seen[is_unimodular(m)] += 1
        assert min(seen.values()) >= 50


class TestUnimodularity:
    def test_examples(self) -> None:
        assert is_unimodular(mat([[1, 1], [0, 1]]))
        assert not is_unimodular(mat([[2, 0], [0, 1]]))
        assert not is_unimodular(IntMatrix.zeros(2, 3))
        assert is_unimodular(IntMatrix.identity(0))


class TestKernel:
    def test_line_kernel(self) -> None:
        ker = kernel_basis(mat([[1, 1]]))
        assert ker.rank == 1
        assert ker.contains((1, -1))
        assert ker.is_saturated()

    def test_trivial_and_full(self) -> None:
        assert kernel_basis(IntMatrix.identity(3)).rank == 0
        full = kernel_basis(IntMatrix.zeros(2, 3))
        assert full.rank == 3

    def test_kernel_vectors_annihilate_seeded(self) -> None:
        rng = random.Random(11)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), bound=6)
            ker = kernel_basis(m)
            for gen in ker.generators():
                assert all(v == 0 for v in m.matvec(gen))
            assert ker.is_saturated()


class TestSolveInteger:
    def test_solver_rejects_wrong_length(self) -> None:
        with pytest.raises(ValueError):
            solve_integer(mat([[1, 0]]), (1, 2))

    def test_diagonal_system(self) -> None:
        assert solve_integer(mat([[2, 0], [0, 3]]), (4, 9)) == (2, 3)

    def test_divisibility_obstruction(self) -> None:
        assert solve_integer(mat([[2]]), (3,)) is None

    def test_inconsistent_system(self) -> None:
        assert solve_integer(mat([[1], [1]]), (1, 2)) is None

    def test_underdetermined_system(self) -> None:
        x = solve_integer(mat([[1, 1]]), (5,))
        assert x is not None
        assert sum(x) == 5

    def test_solutions_verify_seeded(self) -> None:
        rng = random.Random(13)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), bound=5)
            target = tuple(rng.randint(-3, 3) for _ in range(m.cols))
            b = m.matvec(target)
            x = solve_integer(m, b)
            # a right-hand side built from a solution is always solvable
            assert x is not None
            assert m.matvec(x) == b


class TestSolveMod2:
    def test_frozen_examples(self) -> None:
        assert solve_mod2(mat([[1, 1], [0, 1]]), (1, 1)) == (0, 1)
        assert solve_mod2(mat([[0]]), (1,)) is None
        # even entries vanish mod 2
        assert solve_mod2(mat([[2]]), (1,)) is None
        assert solve_mod2(mat([[2]]), (2,)) == (0,)

    def test_witness_is_binary_and_verifies(self) -> None:
        rng = random.Random(17)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), bound=4)
            target = tuple(rng.randint(0, 1) for _ in range(m.cols))
            b = m.matvec(target)
            x = solve_mod2(m, b)
            assert x is not None
            assert set(x) <= {0, 1}
            for got, want in zip(m.matvec(x), b):
                assert (got - want) % 2 == 0


class TestLattice:
    def test_membership_and_coordinates(self) -> None:
        lat = Lattice.from_generators(2, [(2, 0), (0, 3)])
        assert lat.contains((2, 3))
        assert not lat.contains((1, 0))
        coords = lat.coordinates_of((2, 3))
        assert coords is not None
        assert lat.basis.matvec(coords) == (2, 3)
        assert lat.coordinates_of((1, 1)) is None

    def test_redundant_generators_collapse(self) -> None:
        lat = Lattice.from_generators(2, [(1, 0), (2, 0), (3, 0)])
        assert lat.rank == 1
        assert lat.contains((1, 0))

    def test_standard_and_zero(self) -> None:
        assert Lattice.standard(3).rank == 3
        assert Lattice.zero(3).rank == 0
        assert Lattice.zero(3).contains((0, 0, 0))
        assert not Lattice.zero(3).contains((1, 0, 0))

    def test_coordinates_reject_non_integral_entries(self) -> None:
        lat = Lattice.from_generators(2, [(2, 0), (0, 3)])
        with pytest.raises(ValueError, match=r"non-integer entry 2\.0"):
            lat.coordinates_of((2.0, 3))
        assert lat.coordinates_of((np.int64(2), 3)) == (1, 1)

    def test_wrong_length_vector_rejected(self) -> None:
        lat = Lattice.standard(2)
        with pytest.raises(ValueError):
            lat.contains((1, 0, 0))


class TestLatticeOperations:
    def test_intersection_example(self) -> None:
        a = Lattice.from_generators(2, [(2, 0), (0, 1)])
        b = Lattice.from_generators(2, [(1, 0)])
        met = lattice_intersect(a, b)
        assert met.rank == 1
        assert met.contains((2, 0))
        assert not met.contains((1, 0))

    def test_sum_example(self) -> None:
        total = lattice_sum(
            Lattice.from_generators(2, [(2, 0)]),
            Lattice.from_generators(2, [(0, 3)]),
        )
        assert total.rank == 2
        assert total.contains((2, 3))
        assert not total.contains((1, 0))

    def test_intersection_is_largest_common_seeded(self) -> None:
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(1, 4)
            def rand_lattice() -> Lattice:
                count = rng.randint(0, n)
                return Lattice.from_generators(
                    n,
                    [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(count)],
                )
            a, b = rand_lattice(), rand_lattice()
            met = lattice_intersect(a, b)
            for gen in met.generators():
                assert a.contains(gen)
                assert b.contains(gen)
            total = lattice_sum(a, b)
            for gen in list(a.generators()) + list(b.generators()):
                assert total.contains(gen)
            # modular rank identity for lattices
            assert met.rank + total.rank == a.rank + b.rank

    def test_orthogonal_complement_identity_pairing(self) -> None:
        lat = Lattice.from_generators(3, [(1, 1, 0)])
        comp = orthogonal_complement(lat)
        assert comp.rank == 2
        assert comp.contains((1, -1, 0))
        assert comp.contains((0, 0, 1))
        for gen in comp.generators():
            assert sum(a * b for a, b in zip(gen, (1, 1, 0))) == 0

    def test_double_complement_is_saturation(self) -> None:
        lat = Lattice.from_generators(2, [(2, 4)])
        double = orthogonal_complement(orthogonal_complement(lat))
        assert double.rank == 1
        assert double.contains((1, 2))


class TestQuotient:
    def test_cyclic_quotient(self) -> None:
        g = quotient_presentation(
            Lattice.standard(2), Lattice.from_generators(2, [(2, 0)])
        )
        assert g.free_rank == 1
        assert g.invariant_factors == (2,)
        assert str(g) == "Z + Z/2"

    def test_torsion_chain(self) -> None:
        g = quotient_presentation(
            Lattice.standard(2), Lattice.from_generators(2, [(2, 0), (0, 4)])
        )
        assert g.free_rank == 0
        assert g.invariant_factors == (2, 4)

    def test_trivial_quotient(self) -> None:
        g = quotient_presentation(Lattice.standard(2), Lattice.standard(2))
        assert g.free_rank == 0
        assert g.invariant_factors == ()
        assert str(g) == "0"

    def test_denominator_must_be_contained(self) -> None:
        with pytest.raises(ValueError):
            quotient_presentation(
                Lattice.from_generators(2, [(2, 0)]),
                Lattice.from_generators(2, [(1, 0)]),
            )


class TestAbelianGroup:
    def test_str_forms(self) -> None:
        assert str(AbelianGroup(0, ())) == "0"
        assert str(AbelianGroup(2, ())) == "Z^2"
        assert str(AbelianGroup(1, (2, 6))) == "Z + Z/2 + Z/6"

    def test_invalid_presentations_rejected(self) -> None:
        with pytest.raises(ValueError):
            AbelianGroup(-1, ())
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            # 2 does not divide 3
            AbelianGroup(0, (3, 2))
