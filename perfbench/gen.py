"""Seeded input generator for the trihom benchmark.

Self-contained on purpose: it imports nothing from ``trihom`` or from the
test suite, so neither a library change nor a test edit can shift the
workloads. Every input is written as canonical JSON (sorted keys), so the
same (workload, seed) always gives byte-identical files.

Vectors follow the library's conventions: curve classes have length
n = 2g + b - 1 over the basis e_1..e_n, the curve-curve pairing is
x^T J y with J = S^T - S block-diagonal, and the "arcs" field lists arc
classes as columns.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# genus -> (block diagrams, standard-position diagrams) of that rung
LADDER_RUNGS = {4: (3, 2), 6: (3, 1), 8: (2, 1)}
SCRAMBLED_GENUS = 4
SCRAMBLED_COUNT = 20
SCRAMBLE_TARGET_BITS = 36
SCRAMBLE_MAX_MOVES = 400

# Exit codes of the trihom CLI.
OK, REJECTED, PARSE, PRECONDITION = 0, 1, 2, 3
COMMANDS = ("validate", "homology", "form", "w2", "spin", "report")


@dataclass(frozen=True)
class Op:
    """One ``cli.run(command, path, fmt=fmt)`` call and what it must return."""

    op_id: str
    command: str
    path: str
    fmt: str
    expect_exit: int
    base: str | None = None  # op_id of the unmoved diagram's json report


# ---------------------------------------------------------------------------
# surface classes


def _unit(n: int, i: int) -> list[int]:
    v = [0] * n
    v[i] = 1
    return v


def _vec(n: int, entries: list[tuple[int, int]]) -> list[int]:
    v = [0] * n
    for i, c in entries:
        v[i] += c
    return v


def pairing(g: int, x: list[int], y: list[int]) -> int:
    """Curve-curve pairing x^T J y: sum over handles of x2h*y2h+1 - x2h+1*y2h."""
    return sum(x[2 * h] * y[2 * h + 1] - x[2 * h + 1] * y[2 * h] for h in range(g))


# one triple (alpha, beta, gamma) of supports per handle pair (x, y)
PATTERNS = (
    lambda x, y: ([(x, 1)], [(x, 1)], [(x, 1)]),
    lambda x, y: ([(x, 1)], [(y, 1)], [(x, 1), (y, 1)]),
    lambda x, y: ([(x, 1)], [(x, 1)], [(y, 1)]),
    lambda x, y: ([(x, 1)], [(y, 1)], [(y, 1)]),
    lambda x, y: ([(x, 1)], [(y, 1)], [(x, 1)]),
)


def _torsion(m: int):
    # gamma wraps the second handle curve m times, giving Z/m torsion
    return lambda x, y: ([(x, 1)], [(x, 1)], [(x, 1), (y, m)])


def pattern_mix(rng: random.Random, g: int) -> list:
    """One pattern per handle: a fixed mix, every third handle torsion,
    in seeded order with seeded torsion orders.

    The mix is fixed so that the cost of a diagram depends on its genus
    and not on the seed; the seed only reorders it.
    """
    mix = [_torsion(rng.choice((2, 3, 4, 5))) if h % 3 == 2 else PATTERNS[h % len(PATTERNS)]
           for h in range(g)]
    rng.shuffle(mix)
    return mix


def block_diagram(rng: random.Random, g: int, b: int) -> dict:
    n = 2 * g + b - 1
    fams = ([], [], [])
    for h, pattern in enumerate(pattern_mix(rng, g)):
        for fam, sup in zip(fams, pattern(2 * h, 2 * h + 1)):
            fam.append(_vec(n, sup))
    return {"mode": "class", "g": g, "p": 0, "b": b,
            "alpha": fams[0], "beta": fams[1], "gamma": fams[2]}


def standard_arcs(g: int, b: int) -> list[list[int]]:
    # boundary-parallel arcs first, so they fill the l page slots
    n = 2 * g + b - 1
    return [_unit(n, i) for i in list(range(2 * g, n)) + list(range(2 * g))]


def standard_diagram(rng: random.Random, g: int, b: int) -> dict:
    """alpha on the first curve of each handle; beta shares it on a seeded
    half of the handles and takes the dual curve on the rest."""
    n = 2 * g + b - 1
    shared = set(rng.sample(range(g), g // 2))
    return {
        "mode": "class", "g": g, "p": 0, "b": b,
        "alpha": [_unit(n, 2 * h) for h in range(g)],
        "beta": [_unit(n, 2 * h if h in shared else 2 * h + 1) for h in range(g)],
        "gamma": [_vec(n, pattern(2 * h, 2 * h + 1)[2])
                  for h, pattern in enumerate(pattern_mix(rng, g))],
        "arcs": standard_arcs(g, b),
        "standard_position_assertion": True,
    }


def page_only_diagram(g: int, b: int) -> dict:
    n = 2 * g + b - 1
    return {"mode": "class", "g": g, "p": g, "b": b,
            "alpha": [], "beta": [], "gamma": [],
            "arcs": [_unit(n, i) for i in range(n)],
            "standard_position_assertion": True}


def paged_torsion_diagram() -> dict:
    return {"mode": "class", "g": 2, "p": 1, "b": 1,
            "alpha": [[1, 0, 0, 0]], "beta": [[0, 0, 1, 0]], "gamma": [[1, 2, 1, 0]]}


def matrix_diagram(rng: random.Random, g: int, p: int, b: int) -> dict:
    c, l = g - p, 2 * p + b - 1
    mat = lambda r: [[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)]
    obj = {"mode": "matrix", "g": g, "p": p, "b": b,
           "k1": rng.randint(l, g + p + b - 1),
           "Q_gamma_beta": mat(c), "Q_alpha_gamma": mat(c), "Q_a_gamma": mat(l)}
    if obj["k1"] == l:
        # at k1 = l the rank check on Q_beta_alpha allows every matrix
        obj["Q_beta_alpha"] = mat(c)
    return obj


# ---------------------------------------------------------------------------
# moves; both keep every invariant of the filled 4-manifold


def slide(d: dict, rng: random.Random) -> None:
    """Add +-1 or +-2 times one curve of a family to another curve of it.

    Under a standard-position assertion only gamma slides: sliding alpha or
    beta keeps every class-level check passing but breaks the asserted
    configuration, and the y route then answers for a different manifold.
    """
    families = ("gamma",) if d.get("standard_position_assertion") else ("alpha", "beta", "gamma")
    fam = d[rng.choice(families)]
    target, source = rng.sample(range(len(fam)), 2)
    k = rng.choice((-2, -1, 1, 2))
    fam[target] = [t + k * s for t, s in zip(fam[target], fam[source])]


def transvect(d: dict, rng: random.Random) -> None:
    """Apply x -> x + k <x, c> c to every curve, arcs by the inverse transpose.

    The map preserves the pairing for any integer k because <c, c> = 0, and
    its inverse is the same map with -k.
    """
    g, n = d["g"], 2 * d["g"] + d["b"] - 1
    i, j = rng.sample(range(2 * g), 2)
    c = _vec(n, [(i, 1), (j, rng.choice((-1, 1)))])
    k = rng.choice((-2, -1, 1, 2))
    for fam in ("alpha", "beta", "gamma"):
        d[fam] = [[xi + k * pairing(g, x, c) * ci for xi, ci in zip(x, c)] for x in d[fam]]
    if "arcs" in d:
        # a -> a - k (J c)(c . a), with (J c)_2h = c_2h+1, (J c)_2h+1 = -c_2h
        jc = [0] * n
        for h in range(g):
            jc[2 * h], jc[2 * h + 1] = c[2 * h + 1], -c[2 * h]
        d["arcs"] = [
            [ai - k * sum(x * y for x, y in zip(c, a)) * ji for ai, ji in zip(a, jc)]
            for a in d["arcs"]
        ]


def max_bits(d: dict) -> int:
    return max(abs(x).bit_length() for f in ("alpha", "beta", "gamma") for v in d[f] for x in v)


def scramble(d: dict, rng: random.Random, target_bits: int, max_moves: int) -> None:
    """Move d in place until an entry reaches target_bits.

    Stopping at a bit-length rather than a move count keeps the cost of
    different seeds close together.
    """
    moves = 0
    while max_bits(d) < target_bits and moves < max_moves:
        (slide if rng.random() < 0.5 else transvect)(d, rng)
        moves += 1


# ---------------------------------------------------------------------------
# workloads


def _dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")


def write_setup_input(outdir: Path) -> Path:
    """The smallest valid input, the page-only diagram of the 4-ball."""
    path = outdir / "setup-ball.json"
    _dump(path, page_only_diagram(0, 1))
    return path


class _Writer:
    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.ops: list[Op] = []

    def diagram(self, name: str, obj, codes: dict[str, int], base: str | None = None,
                commands=COMMANDS, text_report: bool = True, raw: str | None = None) -> None:
        path = self.outdir / f"{name}.json"
        if raw is not None:
            path.write_text(raw, encoding="utf-8")
        else:
            _dump(path, obj)
        base_op = f"{base}:report:json" if base else None
        for cmd in commands:
            self.ops.append(Op(f"{name}:{cmd}:json", cmd, str(path), "json", codes[cmd],
                               base_op if cmd == "report" else None))
        if text_report:
            self.ops.append(Op(f"{name}:report:text", "report", str(path), "text", codes["report"]))


def _all(code: int) -> dict[str, int]:
    return dict.fromkeys(COMMANDS, code)


MATRIX_CODES = {**_all(OK), "homology": PRECONDITION, "form": PRECONDITION}
BAD_MATRIX_CODES = {**_all(REJECTED), "homology": PRECONDITION, "form": PRECONDITION}


# (g, b) of each diagram; fixed so that only contents, not sizes, follow the seed
CORPUS_PAGES = ((0, 1), (1, 1), (1, 2), (2, 3))
CORPUS_BLOCKS = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 3), (5, 1))
CORPUS_STANDARD = ((1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3))
CORPUS_MOVED = (0, 3, 4, 8, 10)  # indices into blocks + standard
CORPUS_MATRIX = ((1, 0, 2), (2, 0, 2), (3, 1, 2), (4, 1, 3))  # (g, p, b)


def _corpus_mix(rng: random.Random, w: _Writer) -> None:
    """Many small ops over every command, both formats and the error paths,
    so per-call fixed costs (parse, dispatch, validation, tiny HNF/SNF
    calls) come to the front."""
    for g, b in CORPUS_PAGES:
        w.diagram(f"page-g{g}b{b}", page_only_diagram(g, b), _all(OK))
    w.diagram("paged-torsion", paged_torsion_diagram(), _all(OK))
    bases = []
    for i, (g, b) in enumerate(CORPUS_BLOCKS):
        name = f"block{i}-g{g}b{b}"
        w.diagram(name, d := block_diagram(rng, g, b), _all(OK))
        bases.append((name, d))
    for i, (g, b) in enumerate(CORPUS_STANDARD):
        name = f"std{i}-g{g}b{b}"
        w.diagram(name, d := standard_diagram(rng, g, b), _all(OK))
        bases.append((name, d))
    for i in CORPUS_MOVED:
        name, d = bases[i]
        moved = json.loads(json.dumps(d))
        for _ in range(3):
            (slide if rng.random() < 0.5 else transvect)(moved, rng)
        w.diagram(f"{name}-moved", moved, _all(OK), base=name)
    for i, (g, p, b) in enumerate(CORPUS_MATRIX):
        w.diagram(f"matrix{i}-g{g}p{p}b{b}", matrix_diagram(rng, g, p, b), MATRIX_CODES)
    # inputs the CLI must refuse
    w.diagram("bad-json", None, _all(PARSE), raw='{"mode": "class", "g": ')
    w.diagram("bad-field", {**block_diagram(rng, 2, 1), "g": True}, _all(PARSE))
    crossed = block_diagram(rng, 2, 1)
    crossed["alpha"][1] = _unit(4, 1)  # e_2 pairs to 1 with alpha[0] = e_1
    w.diagram("bad-crossing", crossed, _all(REJECTED))
    w.diagram("bad-k", {**block_diagram(rng, 3, 2), "k": [99, 99, 99]}, _all(REJECTED))
    bad_matrix = matrix_diagram(rng, 2, 0, 2)
    bad_matrix["k1"] = 9  # above g + p + b - 1
    bad_matrix.pop("Q_beta_alpha", None)
    w.diagram("bad-k1", bad_matrix, BAD_MATRIX_CODES)


def _genus_ladder(rng: random.Random, w: _Writer) -> None:
    """report at rising genus with small entries: the surface pairing
    (O(n^2) pairs, each O(n^2)) and repeated validation dominate.

    The cost of one diagram still varies with the seed, by about 6% for a
    block diagram and 15% for a standard-position one (and a block one
    with b = 3), so the rungs are sized to put op_p50_ms and op_p90_ms in
    a group of block diagrams with b = 2: of the 12 ops, the median lies
    between the two cheapest g = 6 block diagrams and the 90th percentile
    between the two g = 8 ones, below the costlier standard-position
    diagrams of each rung. Measured over 20 seeds a kind and resampled,
    this puts the seed-to-seed spread near 0.04 for op_p50_ms and 0.07 for
    op_p90_ms, against 0.22 and 0.17 with one diagram of each kind a
    rung."""
    for g, (blocks, standards) in LADDER_RUNGS.items():
        for i in range(blocks):
            w.diagram(f"block{i}-g{g}", block_diagram(rng, g, 2), _all(OK),
                      commands=("report",), text_report=False)
        for i in range(standards):
            w.diagram(f"std{i}-g{g}", standard_diagram(rng, g, 2), _all(OK),
                      commands=("report",), text_report=False)


def _scrambled(rng: random.Random, w: _Writer) -> None:
    """report on moved diagrams whose entries have grown: SNF/HNF
    coefficient growth dominates while dimensions stay small. Many small
    diagrams rather than a few large ones, because the cost of one
    scrambled diagram varies by about 10% with the seed."""
    for i in range(SCRAMBLED_COUNT):
        base = standard_diagram(rng, SCRAMBLED_GENUS, 2)
        moved = json.loads(json.dumps(base))
        scramble(moved, rng, SCRAMBLE_TARGET_BITS, SCRAMBLE_MAX_MOVES)
        # the base runs once, outside the timed passes; see Op.base
        _dump(w.outdir / f"base{i}.json", base)
        w.diagram(f"scrambled{i}", moved, _all(OK), base=f"base{i}",
                  commands=("report",), text_report=False)


_BUILDERS = {"corpus-mix": _corpus_mix, "genus-ladder": _genus_ladder, "scrambled": _scrambled}
WORKLOADS = tuple(_BUILDERS)  # BENCHMARK.json says why each was chosen


def generate(workload: str, seed: int, outdir: Path) -> list[Op]:
    """Write the workload's inputs under outdir and return its ops in order."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(_BUILDERS)}")
    rng = random.Random(f"{workload}:{seed}")
    w = _Writer(outdir)
    _BUILDERS[workload](rng, w)
    return w.ops
