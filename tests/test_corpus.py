"""Structural laws checked across the whole diagram corpus."""

import random
from dataclasses import replace

import pytest

from corpus import (
    PATTERNS,
    CorpusEntry,
    boundary_sum,
    corpus,
    det_int,
    homology_by_kernels,
    mirror,
    signature_int,
    slide,
    standard_diagram,
    torsion_pattern,
    transvect,
)
from trihom import exactalg
from trihom.cli import build_report
from trihom.charclass import (
    linking_matrix_y,
    linking_matrix_z,
    spin_y,
    spin_z,
    w2_y,
    w2_z,
)
from trihom.exactalg import (
    AbelianGroup,
    IntMatrix,
    Lattice,
    kernel_basis,
    lattice_intersect,
    quotient_presentation,
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
from trihom.surface import DiagramMatrices, infer_k, l_partial_lattice, q_matrix, validate

ENTRIES = corpus()
MOVED = [e for e in ENTRIES if e.base is not None]
BY_NAME = {e.name: e for e in ENTRIES}
WITH_ARCS = [e for e in ENTRIES if e.has_arcs]

entry_ids = [e.name for e in ENTRIES]
# every entry under the standard-position assertion whose arcs pass the y route's check
ASSERTED = [replace(e.diagram, standard_position=True) for e in ENTRIES]
Y_ROUTED = [(e.name, d) for e, d in zip(ENTRIES, ASSERTED) if d.standard_position_refusal is None]


def groups_of(result) -> list[str]:
    return [str(g) for g in result.groups()]


def test_corpus_shape() -> None:
    assert len(ENTRIES) >= 20
    assert len(BY_NAME) == len(ENTRIES)
    assert len(WITH_ARCS) >= 6
    assert len(MOVED) >= 5


def test_corpus_is_deterministic() -> None:
    again = {e.name: e.diagram for e in corpus()}
    for entry in ENTRIES:
        other = again[entry.name]
        assert other.alpha == entry.diagram.alpha
        assert other.beta == entry.diagram.beta
        assert other.gamma == entry.diagram.gamma
        if entry.has_arcs:
            assert other.arcs.to_rows() == entry.diagram.arcs.to_rows()


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_ids)
def test_every_entry_validates(entry: CorpusEntry) -> None:
    rep = validate(entry.diagram)
    assert rep.ok, [c.name for c in rep.failures()]


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_ids)
def test_homology_routes_agree(entry: CorpusEntry) -> None:
    d = entry.diagram
    hy = groups_of(homology_of(build_cy(d)))
    hz = groups_of(homology_of(build_cz(d)))
    hc = groups_of(h_closed_forms(d))
    assert hy == hz == hc
    assert hy[0] == "Z"


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_ids)
def test_homology_matches_the_kernel_oracle(entry: CorpusEntry) -> None:
    # homology_of reads each group off the image of one boundary map; ker/im
    # must give the same groups on the entry and on moved copies of it
    d = replace(entry.diagram, standard_position=False)
    for moved in [d] + [slid(d, random.Random(seed), 6) for seed in range(10)]:
        for c in (build_cy(moved), build_cz(moved)):
            h = homology_of(c)
            assert h == homology_by_kernels(c)
            assert sum((-1) ** i * g.free_rank for i, g in enumerate(h.groups())) == (
                euler_characteristic(c)
            )


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_ids)
def test_boundary_composites_vanish(entry: CorpusEntry) -> None:
    for complex_ in (build_cy(entry.diagram), build_cz(entry.diagram)):
        d1, d2, d3 = complex_.boundaries
        assert d1.mul(d2).is_zero
        assert d2.mul(d3).is_zero


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_ids)
def test_euler_characteristic_matches_handle_counts(entry: CorpusEntry) -> None:
    d = entry.diagram
    sig = d.sig
    k1, k2, k3 = infer_k(d)
    chi_small = 1 - k1 + (sig.g - sig.p) - (k2 + k3 - 2 * sig.l)
    chi_large = 1 - sig.n + 3 * (sig.g - sig.p) - (k1 + k2 + k3 - 3 * sig.l)
    assert chi_small == chi_large
    assert euler_characteristic(build_cy(d)) == chi_small
    assert euler_characteristic(build_cz(d)) == chi_large


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_ids)
def test_intersection_form_laws(entry: CorpusEntry) -> None:
    d = entry.diagram
    form = intersection_form(d)
    h2 = h_closed_forms(d).h2
    assert form.matrix.rows == form.matrix.cols == h2.free_rank
    assert form.torsion == h2.invariant_factors
    assert form.matrix.to_rows() == form.matrix.transpose().to_rows()
    for i, gi in enumerate(form.generators):
        for j, gj in enumerate(form.generators):
            assert form.matrix.entry(i, j) == phi(d, gi, gj)


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_ids)
def test_pairing_is_bilinear_on_classes(entry: CorpusEntry) -> None:
    d = entry.diagram
    gens = intersection_form(d).generators
    zero = tuple(0 for _ in range(len(d.gamma)))
    assert phi(d, zero, zero) == 0
    if not gens:
        return
    first = gens[0]
    doubled = tuple(2 * v for v in first)
    assert phi(d, doubled, first) == 2 * phi(d, first, first)
    if len(gens) > 1:
        second = gens[1]
        mixed = tuple(a + b for a, b in zip(first, second))
        assert phi(d, mixed, first) == phi(d, first, first) + phi(d, second, first)
        assert phi(d, first, second) == phi(d, second, first)


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_ids)
def test_w2_parity_law(entry: CorpusEntry) -> None:
    # pairing a two-cycle of the large complex against the w2 coefficients
    # has the parity of the self-intersection of the class it represents
    d = entry.diagram
    count = len(d.gamma)
    coeffs = w2_z(d).coefficients
    d2 = build_cz(d).boundaries[1]
    for cycle in kernel_basis(d2).generators():
        gamma_part = tuple(-v for v in cycle[2 * count :])
        self_int = phi(d, gamma_part, gamma_part)
        dot = sum(a * b for a, b in zip(coeffs, cycle))
        assert (dot - self_int) % 2 == 0


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_ids)
def test_w2_is_linking_diagonal_mod_two(entry: CorpusEntry) -> None:
    d = entry.diagram
    assert w2_z(d).coefficients == tuple(
        v % 2 for v in linking_matrix_z(d).diagonal()
    )
    if entry.has_arcs:
        assert w2_y(d).coefficients == tuple(
            v % 2 for v in linking_matrix_y(d).diagonal()
        )


@pytest.mark.parametrize("entry", WITH_ARCS, ids=[e.name for e in WITH_ARCS])
def test_spin_routes_agree(entry: CorpusEntry) -> None:
    assert spin_y(entry.diagram).spin == spin_z(entry.diagram).spin


def as_matrices(d) -> DiagramMatrices:
    """The matrix-mode input of d's own pairing data, with alpha and beta
    reordered together so that the curves they share come first, as matrix
    mode takes them."""
    sig = d.sig
    order = sorted(range(sig.curves_per_family), key=lambda i: d.alpha[i] != d.beta[i])
    alpha, beta = [d.alpha[i] for i in order], [d.beta[i] for i in order]
    arcs = IntMatrix.from_rows(d.special_arcs, cols=sig.n)  # an arc pairs with a curve by a^T x
    return DiagramMatrices(
        sig=sig,
        k1=infer_k(d)[0],
        q_gamma_beta=q_matrix(sig, d.gamma, beta),
        q_alpha_gamma=q_matrix(sig, alpha, d.gamma),
        q_a_gamma=arcs.mul(d.family_matrices["gamma"]),
        q_beta_alpha=q_matrix(sig, beta, alpha),
    )


def test_most_entries_have_a_y_route() -> None:
    assert len(Y_ROUTED) >= 19


@pytest.mark.parametrize("d", [d for _, d in Y_ROUTED], ids=[name for name, _ in Y_ROUTED])
def test_matrix_mode_agrees_with_class_mode(d) -> None:
    # the two input modes of one diagram give one linking matrix, w2 and spin
    m = as_matrices(d)
    assert m.validation.ok, [c.name for c in m.validation.failures()]
    assert linking_matrix_y(m).to_rows() == linking_matrix_y(d).to_rows()
    assert w2_y(m) == w2_y(d)
    assert spin_y(m).spin == spin_y(d).spin


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_ids)
def test_spin_witness_certifies(entry: CorpusEntry) -> None:
    d = entry.diagram
    verdict = spin_z(d)
    if not verdict.spin:
        assert verdict.witness is None
        return
    assert verdict.witness is not None
    assert set(verdict.witness) <= {0, 1}
    rows = [list(v) for fam in ("alpha", "beta", "gamma") for v in d.family(fam)]
    if rows:
        stacked = IntMatrix.from_rows(rows)
        got = stacked.matvec(verdict.witness)
        for a, b in zip(got, w2_z(d).coefficients):
            assert (a - b) % 2 == 0


@pytest.mark.parametrize(
    "moved", MOVED, ids=[e.name for e in MOVED]
)
def test_moves_preserve_invariants(moved: CorpusEntry) -> None:
    base = BY_NAME[moved.base].diagram
    other = moved.diagram
    assert infer_k(base) == infer_k(other)
    assert groups_of(h_closed_forms(base)) == groups_of(h_closed_forms(other))
    assert euler_characteristic(build_cz(base)) == euler_characteristic(
        build_cz(other)
    )
    assert spin_z(base).spin == spin_z(other).spin

    form_a = intersection_form(base)
    form_b = intersection_form(other)
    assert form_a.matrix.rows == form_b.matrix.rows
    assert form_a.torsion == form_b.torsion
    # congruent integer matrices share their determinant
    assert det_int(form_a.matrix) == det_int(form_b.matrix)

    if moved.has_arcs and BY_NAME[moved.base].has_arcs:
        # the small-route outputs depend only on pairings, which moves preserve
        assert linking_matrix_y(base).to_rows() == linking_matrix_y(other).to_rows()
        assert w2_y(base).coefficients == w2_y(other).coefficients
        assert spin_y(base).spin == spin_y(other).spin


def form_invariants(form: dict) -> tuple:
    """Rank, |det|, parity, signature and torsion of a report's form."""
    m = IntMatrix.from_rows(form["matrix"], cols=len(form["matrix"]))
    even = all(m.entry(i, i) % 2 == 0 for i in range(m.rows))
    return m.rows, abs(det_int(m)), even, signature_int(m), form["torsion_invariant_factors"]


def scrambled(d, rng: random.Random, moves: int):
    """d moved by seeded gamma slides and transvections along e_i +- e_j.
    Only gamma slides: sliding alpha or beta would leave standard position."""
    n, handles = d.sig.n, d.sig.curves_per_family
    for _ in range(moves):
        if rng.random() < 0.5:
            target, source = rng.sample(range(handles), 2)
            d = slide(d, "gamma", target, source, rng.choice((-2, -1, 1, 2)))
        else:
            i, j = rng.sample(range(2 * d.sig.g), 2)
            c = [0] * n
            c[i], c[j] = 1, rng.choice((-1, 1))
            d = transvect(d, c)
    return d


def slid(d, rng: random.Random, moves: int):
    """d moved by seeded +-1 alpha, beta and gamma slides and transvections
    along e_i +- e_j."""
    n, handles = d.sig.n, d.sig.curves_per_family
    for _ in range(moves):
        if handles > 1 and rng.random() < 0.5:
            target, source = rng.sample(range(handles), 2)
            family = rng.choice(("alpha", "beta", "gamma"))
            d = slide(d, family, target, source, rng.choice((-1, 1)))
        elif d.sig.g:
            i, j = rng.sample(range(2 * d.sig.g), 2)
            c = [0] * n
            c[i], c[j] = 1, rng.choice((-1, 1))
            d = transvect(d, c)
    return d


def slide_invariants(d) -> tuple:
    """What slides and transvections must keep: the homology by every route
    with inferred k, the form's invariants, and the z spin verdict. The y
    linking, w2 and spin are left out: after an alpha or beta slide the
    diagram leaves standard position. The y route refuses most such
    diagrams by their alpha-beta pairing, but a few slid diagrams still
    pass that check with a wrong y verdict (ROADMAP item 2)."""
    _, homology = build_report(d, "homology")
    _, form = build_report(d, "form")
    return homology, form_invariants(form["intersection_form"]), spin_z(d).spin


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_ids)
def test_slides_preserve_invariants(entry: CorpusEntry) -> None:
    d = replace(entry.diagram, standard_position=False)
    want = slide_invariants(d)
    for seed in range(10):
        assert slide_invariants(slid(d, random.Random(seed), 6)) == want, seed


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_ids)
def test_mirror_negates_the_signature(entry: CorpusEntry) -> None:
    # -X has the homology, |det|, parity and spin of X and the opposite
    # signature; the y route refuses both or gives both one verdict
    d = replace(entry.diagram, standard_position=True)
    m = mirror(d)
    assert build_report(m, "homology")[1] == build_report(d, "homology")[1]
    want, got = (form_invariants(build_report(x, "form")[1]["intersection_form"]) for x in (d, m))
    rank, det, even, signature, torsion = want
    assert got == (rank, det, even, -signature, torsion)
    assert spin_z(m).spin == spin_z(d).spin
    assert m.standard_position_refusal == d.standard_position_refusal
    if d.standard_position_refusal is None:
        assert spin_y(m).spin == spin_y(d).spin


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_ids)
def test_page_lattice_is_the_annihilator_of_the_alpha_beta_sum(entry: CorpusEntry) -> None:
    # the oracle builds the y complex's C_1 as it is defined, L_alpha_partial
    # cap L_beta_partial; the diagram's annihilator of L_alpha + L_beta must
    # give the same canonical basis, on the entry and on moved copies of it
    for d in [entry.diagram] + [slid(entry.diagram, random.Random(seed), 6) for seed in range(10)]:
        assert d.validation.ok
        partials = (l_partial_lattice(d, f) for f in ("alpha", "beta"))
        assert d.partial_intersection == lattice_intersect(*partials)


def direct_sum(a: AbelianGroup, b: AbelianGroup) -> AbelianGroup:
    """A + B, its torsion read off the two torsion parts' relations side by side."""
    t = a.invariant_factors + b.invariant_factors
    rows = [[x if i == j else 0 for j in range(len(t))] for i, x in enumerate(t)]
    relations = Lattice.from_matrix_columns(IntMatrix.from_rows(rows, cols=len(t)))
    torsion = quotient_presentation(Lattice.standard(len(t)), relations)
    return AbelianGroup(a.free_rank + b.free_rank, torsion.invariant_factors)


# a seeded sample of the ordered pairs of asserted entries
SUM_PAIRS = random.Random(6).sample(
    [(i, j) for i in range(len(ENTRIES)) for j in range(len(ENTRIES))], 48
)


@pytest.mark.parametrize("i, j", SUM_PAIRS,
                         ids=[f"{ENTRIES[i].name}+{ENTRIES[j].name}" for i, j in SUM_PAIRS])
def test_boundary_sum_adds_the_invariants(i: int, j: int) -> None:
    # the boundary connected sum adds H_1..H_3, the form's rank and signature
    # and multiplies |det|; it is even or spin when both summands are
    x, y = ASSERTED[i], ASSERTED[j]
    s = boundary_sum(x, y)
    hx, hy, hs = (h_closed_forms(d).groups() for d in (x, y, s))
    assert hs[0] == hx[0]
    assert hs[1:] == tuple(direct_sum(a, b) for a, b in zip(hx[1:], hy[1:]))
    assert homology_of(build_cz(s)).groups() == hs
    (rx, dx, ex, sx, _), (ry, dy, ey, sy, _), (rs, ds, es, ss, _) = (
        form_invariants(build_report(d, "form")[1]["intersection_form"]) for d in (x, y, s)
    )
    assert (rs, ds, es, ss) == (rx + ry, dx * dy, ex and ey, sx + sy)
    assert spin_z(s).spin == (spin_z(x).spin and spin_z(y).spin)
    if s.standard_position_refusal is None:
        assert spin_y(s).spin == spin_z(s).spin


def test_boundary_sum_sample_reaches_the_y_route() -> None:
    # the y law above checks nothing unless some sampled sums pass the y gate
    sums = (boundary_sum(ASSERTED[i], ASSERTED[j]) for i, j in SUM_PAIRS)
    assert sum(s.standard_position_refusal is None for s in sums) >= 8


def slid_alpha_beta(d, seed: int):
    """d moved by 3 seeded +-1 alpha or beta slides."""
    rng = random.Random(seed)
    for _ in range(3):
        target, source = rng.sample(range(d.sig.curves_per_family), 2)
        d = slide(d, rng.choice(("alpha", "beta")), target, source, rng.choice((-1, 1)))
    return d


SLIDABLE = [(name, d) for name, d in Y_ROUTED if d.sig.curves_per_family > 1]


@pytest.mark.parametrize("name, d", SLIDABLE, ids=[name for name, _ in SLIDABLE])
def test_alpha_beta_slides_refused_or_agree_on_spin(name, d) -> None:
    # the slides leave standard position; the y route must refuse the
    # diagram or give the z route's verdict, never a different one
    for seed in range(10):
        moved = slid_alpha_beta(d, seed)
        if moved.standard_position_refusal is None:
            assert spin_y(moved).spin == spin_z(moved).spin, seed


GROWTH_CASES = {
    # shared handles first: Z/3 and a free class in H_1, then odd and even form blocks
    "odd": (7, [torsion_pattern(3), PATTERNS["P5"], torsion_pattern(2), PATTERNS["P2"],
                PATTERNS["P4"], torsion_pattern(3), PATTERNS["P3"], PATTERNS["P2"]]),
    "even": (3, [torsion_pattern(3), PATTERNS["P5"], torsion_pattern(2), torsion_pattern(2),
                 PATTERNS["P4"], PATTERNS["P3"], torsion_pattern(2), PATTERNS["P4"]]),
}


@pytest.mark.parametrize("case", sorted(GROWTH_CASES))
def test_report_survives_entry_growth(case: str, monkeypatch) -> None:
    # 400 moves take a g=8 diagram to 50-90-bit entries; every invariant the
    # report prints must come out as for the unmoved diagram
    seed, patterns = GROWTH_CASES[case]
    base = standard_diagram(8, 1, 2, patterns)
    moved = scrambled(base, random.Random(seed), 400)
    bits = max(abs(x).bit_length() for f in ("alpha", "beta", "gamma")
               for v in moved.family(f) for x in v)
    assert 50 <= bits <= 90

    peak = [0]  # largest entry of any Hermite echelon basis, in bits
    real_echelon = exactalg._echelon

    def recording_echelon(columns, n):
        basis = real_echelon(columns, n)
        peak[0] = max([peak[0]] + [abs(x).bit_length() for c in basis.values() for x in c])
        return basis

    monkeypatch.setattr(exactalg, "_echelon", recording_echelon)
    (code_a, want), (code_b, got) = build_report(base), build_report(moved)
    # reducing each merged column keeps the Hermite entries near the input
    # size (about 4x here); merging without it reaches 18-160 kbit
    assert peak[0] <= 8 * bits
    assert code_a == code_b == 0
    assert got["homology"] == want["homology"]
    assert got["homology"]["agree"]
    assert got["inferred_k"] == want["inferred_k"]
    assert form_invariants(got["intersection_form"]) == form_invariants(want["intersection_form"])
    for route in ("y", "z"):
        assert got["spin"][route]["spin"] == want["spin"][route]["spin"]

