"""Acceptance gate: the eight shipping criteria, one test each.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Every check is exact; the only tolerances are runtime
budgets on the golden fixtures and the random oracle suite.
"""

import itertools
import json
import random
import time
from pathlib import Path

import numpy as np

from corpus import corpus, det_int
from trihom.charclass import linking_matrix_y, spin_y, spin_z, w2_y, w2_z
from trihom.cli import run
from trihom.exactalg import (
    IntMatrix,
    Lattice,
    lattice_intersect,
    lattice_sum,
    snf,
    solve_integer,
)
from trihom.homology import (
    build_cy,
    build_cz,
    euler_characteristic,
    h_closed_forms,
    homology_of,
    intersection_form,
    phi,
)
from trihom.surface import (
    Diagram,
    DiagramMatrices,
    SurfaceSignature,
    infer_k,
    intersection_number,
)

FIXTURES = Path(__file__).parent / "fixtures"
ENTRIES = corpus()


def decompose(d: Diagram, coords: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the class with the given gamma coordinates as x' + x''."""
    a = d.family_matrices["alpha"]
    b = d.family_matrices["beta"]
    target = d.family_matrices["gamma"].matvec(coords)
    solution = solve_integer(a.hstack(b), target)
    assert solution is not None, "corpus classes must decompose"
    return solution[: a.cols], solution[a.cols :]


def test_criterion_1_matrix_mode_golden() -> None:
    start = time.perf_counter()
    data = DiagramMatrices(
        sig=SurfaceSignature(2, 0, 2),
        k1=1,
        q_gamma_beta=IntMatrix.from_rows([[1, 0], [0, -1]]),
        q_alpha_gamma=IntMatrix.from_rows([[0, -1], [1, 1]]),
        q_a_gamma=IntMatrix.from_rows([[1, 0]]),
        q_beta_alpha=IntMatrix.from_rows([[1, 0], [0, 1]]),
    )
    linking = linking_matrix_y(data)
    assert linking.to_rows() == [[0, -1], [-1, -1]]
    assert w2_y(data).coefficients == (0, 1)
    verdict = spin_y(data)
    assert verdict.spin is False
    assert verdict.witness is None
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden computation took {elapsed:.3f}s"
    print(f"criterion 1 PASS: linking {linking.to_rows()}, w2 (0, 1), spin False")


def test_criterion_2_torus_fixture_golden() -> None:
    start = time.perf_counter()
    d = Diagram.build(1, 0, 1, [[1, 0]], [[0, 1]], [[1, 1]])
    results = [
        homology_of(build_cy(d)),
        homology_of(build_cz(d)),
        h_closed_forms(d),
    ]
    for res in results:
        assert [str(g) for g in res.groups()] == ["Z", "0", "Z", "0"]
    # both complexes stop at degree three, so the degree-four group is zero
    assert len(build_cy(d).ranks) == 4
    assert len(build_cz(d).ranks) == 4

    assert intersection_form(d).matrix.to_rows() == [[-1]]
    assert w2_z(d).coefficients == (0, 0, 1)
    assert spin_z(d).spin is False
    assert infer_k(d) == (0, 0, 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"torus fixture took {elapsed:.3f}s"
    print("criterion 2 PASS: homology (Z, 0, Z, 0, 0), form [[-1]], w2 (0,0,1), spin False")


def test_criterion_3_triple_agreement_over_corpus() -> None:
    assert len(ENTRIES) >= 20
    signatures = {(e.diagram.sig.g, e.diagram.sig.p, e.diagram.sig.b) for e in ENTRIES}
    assert any(g == p for g, p, _ in signatures)
    assert {b for _, _, b in signatures} >= {1, 2, 3}
    torsion_seen = False
    for entry in ENTRIES:
        d = entry.diagram
        hy = homology_of(build_cy(d))
        hz = homology_of(build_cz(d))
        hc = h_closed_forms(d)
        for gy, gz, gc in zip(hy.groups(), hz.groups(), hc.groups()):
            assert gy.free_rank == gz.free_rank == gc.free_rank, entry.name
            assert (
                gy.invariant_factors
                == gz.invariant_factors
                == gc.invariant_factors
            ), entry.name
        torsion_seen = torsion_seen or bool(hc.h1.invariant_factors)
    assert torsion_seen, "corpus must include torsion homology"
    print(f"criterion 3 PASS: {len(ENTRIES)} diagrams, three routes agree on each")


def _oracle_diagonalize(gens: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Independent diagonalization tracking row operations only.

    First-nonzero pivoting and floor-division remainders; nothing shared
    with the library implementation beyond arithmetic.
    """
    a = gens.astype(np.int64).copy()
    rows, cols = a.shape
    u = np.eye(rows, dtype=np.int64)
    t = 0
    while t < rows and t < cols:
        pivot = next(
            (
                (i, j)
                for i in range(t, rows)
                for j in range(t, cols)
                if a[i, j] != 0
            ),
            None,
        )
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            a[[t, i]] = a[[i, t]]
            u[[t, i]] = u[[i, t]]
        if j != t:
            a[:, [t, j]] = a[:, [j, t]]
        while True:
            swapped = False
            for r in range(t + 1, rows):
                if a[r, t] % a[t, t] != 0:
                    q = a[r, t] // a[t, t]
                    a[r] -= q * a[t]
                    u[r] -= q * u[t]
                    a[[t, r]] = a[[r, t]]
                    u[[t, r]] = u[[r, t]]
                    swapped = True
                    break
            if swapped:
                continue
            for r in range(t + 1, rows):
                q = a[r, t] // a[t, t]
                if q:
                    a[r] -= q * a[t]
                    u[r] -= q * u[t]
            for c in range(t + 1, cols):
                if a[t, c] % a[t, t] != 0:
                    q = a[t, c] // a[t, t]
                    a[:, c] -= q * a[:, t]
                    a[:, [t, c]] = a[:, [c, t]]
                    swapped = True
                    break
            if swapped:
                continue
            for c in range(t + 1, cols):
                q = a[t, c] // a[t, t]
                if q:
                    a[:, c] -= q * a[:, t]
            break
        t += 1
    diag = [int(a[i, i]) for i in range(min(rows, cols))]
    assert np.abs(u).max(initial=1) < 2**31
    return u, diag


def _oracle_membership(gens: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Which box vectors lie in the column span over the integers."""
    u, diag = _oracle_diagonalize(gens)
    transformed = u @ box.T
    mask = np.ones(box.shape[0], dtype=bool)
    for i in range(gens.shape[0]):
        if i < len(diag) and diag[i] != 0:
            mask &= transformed[i] % diag[i] == 0
        else:
            mask &= transformed[i] == 0
    return mask


def _generator_columns(lat: Lattice, n: int) -> np.ndarray:
    gens = lat.generators()
    if not gens:
        return np.zeros((n, 0), dtype=np.int64)
    return np.array(gens, dtype=np.int64).T


def test_criterion_4_exact_algebra_oracles() -> None:
    start = time.perf_counter()
    rng = random.Random(404)

    checked = 0
    for _ in range(500):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        dec = snf(m)
        assert dec.U.mul(m).mul(dec.V).to_rows() == dec.D.to_rows()
        assert abs(det_int(dec.U)) == 1
        assert abs(det_int(dec.V)) == 1
        diag = dec.D.diagonal()
        for r in range(dec.D.rows):
            for c in range(dec.D.cols):
                if r != c:
                    assert dec.D.entry(r, c) == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if b != 0:
                assert a != 0 and b % a == 0
        checked += 1
    assert checked >= 500

    boxes = {
        n: np.array(list(itertools.product(range(-6, 7), repeat=n)), dtype=np.int64)
        for n in (2, 3, 4)
    }
    pair_dims = [2] * 90 + [3] * 80 + [4] * 30
    pairs_checked = 0
    for n in pair_dims:
        def random_lattice() -> Lattice:
            count = rng.randint(0, n)
            return Lattice.from_generators(
                n,
                [
                    tuple(rng.randint(-4, 4) for _ in range(n))
                    for _ in range(count)
                ],
            )

        lat_a, lat_b = random_lattice(), random_lattice()
        box = boxes[n]
        in_a = _oracle_membership(_generator_columns(lat_a, n), box)
        in_b = _oracle_membership(_generator_columns(lat_b, n), box)

        met = lattice_intersect(lat_a, lat_b)
        in_met = _oracle_membership(_generator_columns(met, n), box)
        assert np.array_equal(in_met, in_a & in_b)

        total = lattice_sum(lat_a, lat_b)
        in_total = _oracle_membership(_generator_columns(total, n), box)
        stacked = np.concatenate(
            [_generator_columns(lat_a, n), _generator_columns(lat_b, n)], axis=1
        )
        assert np.array_equal(in_total, _oracle_membership(stacked, box))
        pairs_checked += 1

    assert pairs_checked >= 200
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle suite took {elapsed:.1f}s"
    print(
        f"criterion 4 PASS: 500 decompositions and {pairs_checked} lattice pairs "
        f"in {elapsed:.1f}s"
    )


def test_criterion_5_chain_complex_sanity() -> None:
    for entry in ENTRIES:
        d = entry.diagram
        small, large = build_cy(d), build_cz(d)
        for complex_ in (small, large):
            d1, d2, d3 = complex_.boundaries
            assert d1.mul(d2).is_zero, entry.name
            assert d2.mul(d3).is_zero, entry.name
        sig = d.sig
        k1, k2, k3 = infer_k(d)
        chi_small = 1 - k1 + (sig.g - sig.p) - (k2 + k3 - 2 * sig.l)
        chi_large = 1 - sig.n + 3 * (sig.g - sig.p) - (k1 + k2 + k3 - 3 * sig.l)
        assert euler_characteristic(small) == chi_small, entry.name
        assert euler_characteristic(large) == chi_large, entry.name
        assert chi_small == chi_large, entry.name
    print(f"criterion 5 PASS: boundary composites vanish on {len(ENTRIES)} diagrams")


def test_criterion_6_pairing_well_defined_and_symmetric() -> None:
    rng = random.Random(606)
    redecompositions = 0
    for entry in ENTRIES:
        d = entry.diagram
        form = intersection_form(d)
        assert form.matrix.to_rows() == form.matrix.transpose().to_rows(), entry.name

        slack = lattice_intersect(
            Lattice.from_generators(d.sig.n, [list(v) for v in d.alpha]),
            Lattice.from_generators(d.sig.n, [list(v) for v in d.beta]),
        )
        a = d.family_matrices["alpha"]
        for coords in form.generators:
            expected = phi(d, coords, coords)
            part_a, _ = decompose(d, coords)
            x_prime = list(a.matvec(part_a))
            y_ambient = d.family_matrices["gamma"].matvec(coords)
            for _ in range(10):
                shift = [0] * d.sig.n
                for gen in slack.generators():
                    coeff = rng.randint(-2, 2)
                    shift = [s + coeff * g for s, g in zip(shift, gen)]
                moved = [xp + s for xp, s in zip(x_prime, shift)]
                value = -intersection_number(d.sig, moved, y_ambient)
                assert value == expected, entry.name
                redecompositions += 1
    print(f"criterion 6 PASS: {redecompositions} re-decompositions left the pairing fixed")


def test_criterion_7_parity_law() -> None:
    generators_checked = 0
    for entry in ENTRIES:
        d = entry.diagram
        form = intersection_form(d)
        if not form.generators:
            continue
        coeffs = w2_z(d).coefficients
        for coords in form.generators:
            part_a, part_b = decompose(d, coords)
            cycle = list(part_a) + list(part_b) + [-x for x in coords]
            d2 = build_cz(d).boundaries[1]
            assert all(v == 0 for v in d2.matvec(cycle)), entry.name
            dot = sum(a * b for a, b in zip(coeffs, cycle))
            self_int = phi(d, coords, coords)
            assert (dot - self_int) % 2 == 0, entry.name
            generators_checked += 1
    assert generators_checked > 0
    print(f"criterion 7 PASS: parity law on {generators_checked} generators")


def test_criterion_8_cli_determinism() -> None:
    fixtures = sorted(FIXTURES.glob("*.json"))
    assert len(fixtures) >= 3
    for path in fixtures:
        first = run("report", str(path), fmt="json")
        second = run("report", str(path), fmt="json")
        assert first[0] == 0, path.name
        assert first == second, path.name
        json.loads(first[1])
    print(f"criterion 8 PASS: byte-identical reports for {len(fixtures)} fixtures")
