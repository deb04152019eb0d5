"""Linking matrices, a second Stiefel-Whitney representative, and spin tests.

Two independent routes. The y route works on the pairing data of a
standard-position diagram (native in matrix mode; class mode must assert
standard position and supply page arcs that complete both the alpha and
beta families to bases of their boundary-compatible lattices). The z route
needs only the curve classes and the arc system, so it is always available
in class mode.

Output conventions: linking matrices are integer, but only their diagonals
are geometrically meaningful and only mod 2; w2 coefficients are the
diagonals reduced mod 2 against the stated curve basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import IntMatrix, Lattice, solve_mod2
from .surface import (
    Diagram,
    DiagramMatrices,
    PreconditionError,
    l_partial_lattice,
    q_matrix,
    r_matrix,
    require_valid,
    s_matrix,
    to_relative,
)


@dataclass(frozen=True)
class W2Representative:
    """Mod-2 cocycle coefficients against a named basis of 2-handle classes."""

    basis: str
    coefficients: tuple[int, ...]
    linking: IntMatrix


@dataclass(frozen=True)
class SpinVerdict:
    spin: bool
    witness: tuple[int, ...] | None
    basis: str


def _special_arcs(d: Diagram) -> list[tuple[int, ...]]:
    arcs = d.arc_matrix()
    return [arcs.column(j) for j in range(d.sig.l)]


def _require_standard_position(d: Diagram) -> None:
    """Gate for class-mode y-route computations.

    Standard position itself is a statement about curves, not classes, so
    the user must assert it; what can be checked is that the supplied page
    arcs complete phi(alpha) and phi(beta) to bases of the respective
    boundary-compatible lattices, and that L_alpha + L_beta is saturated.
    """
    if not d.standard_position:
        raise PreconditionError(
            "the y route needs the standard-position assertion for this "
            "diagram (file field standard_position or flag "
            "--assert-standard-position); without it use the z route"
        )
    sig = d.sig
    special = _special_arcs(d)
    for fam in ("alpha", "beta"):
        target = l_partial_lattice(d, fam)
        gens = [to_relative(sig, c) for c in d.family(fam)] + special
        cand = Lattice.from_generators(sig.n, gens)
        if cand != target or len(gens) != target.rank:
            raise PreconditionError(
                f"the supplied page arcs do not complete the {fam} family "
                f"to a basis of its boundary-compatible lattice; the "
                f"standard-position assertion is inconsistent with the classes"
            )
    if not d.alpha_beta_saturated:
        raise PreconditionError(
            "L_alpha + L_beta is not saturated, which contradicts the "
            "standard-position assertion"
        )


def _class_q_data(d: Diagram) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    sig = d.sig
    special = _special_arcs(d)
    qgb = q_matrix(sig, d.gamma, d.beta)
    qag = q_matrix(sig, d.alpha, d.gamma)
    qa_g = q_matrix(sig, special, d.gamma, mu_arcs=True)
    return qgb, qag, qa_g


def _linking_from_q(
    sig_r: IntMatrix, qgb: IntMatrix, qag: IntMatrix, qa_g: IntMatrix
) -> IntMatrix:
    # rows: gamma against (beta curves, then page arcs); columns: (alpha
    # curves, then page arcs) against gamma; the page framing sits between
    left = qgb.hstack(qa_g.transpose().neg())
    right = qag.vstack(qa_g)
    return left.mul(sig_r).mul(right)


def linking_matrix_y(data: Diagram | DiagramMatrices) -> IntMatrix:
    """(g-p) x (g-p) linking matrix of the gamma curves, page route."""
    require_valid(data)
    if isinstance(data, DiagramMatrices):
        return _linking_from_q(
            r_matrix(data.sig), data.q_gamma_beta, data.q_alpha_gamma, data.q_a_gamma
        )
    _require_standard_position(data)
    qgb, qag, qa_g = _class_q_data(data)
    return _linking_from_q(r_matrix(data.sig), qgb, qag, qa_g)


def _stacked_curve_rows(d: Diagram) -> IntMatrix:
    return (
        d.family_matrix("alpha")
        .transpose()
        .vstack(d.family_matrix("beta").transpose())
        .vstack(d.family_matrix("gamma").transpose())
    )


def linking_matrix_z(d: Diagram) -> IntMatrix:
    """3(g-p) x 3(g-p) linking matrix of all curves, doubling route.

    Computed in the standard arc configuration: the framing matrix S is
    configuration data, not a bilinear form, so the values do not depend
    on which arc basis the classes are later expressed in. A custom arc
    system in the diagram only affects the y route's page arcs.
    """
    require_valid(d)
    n_rows = _stacked_curve_rows(d)
    return n_rows.mul(s_matrix(d.sig)).mul(n_rows.transpose()).neg()


def w2_y(data: Diagram | DiagramMatrices) -> W2Representative:
    linking = linking_matrix_y(data)
    return W2Representative(
        basis="gamma curves",
        coefficients=tuple(x & 1 for x in linking.diagonal()),
        linking=linking,
    )


def w2_z(d: Diagram) -> W2Representative:
    linking = linking_matrix_z(d)
    return W2Representative(
        basis="alpha, beta, gamma curves stacked",
        coefficients=tuple(x & 1 for x in linking.diagonal()),
        linking=linking,
    )


def spin_y(
    data: Diagram | DiagramMatrices, w2: W2Representative | None = None
) -> SpinVerdict:
    """Spin existence via the page route.

    Solves <d, gamma_i> = w2_i mod 2 for d in the intersection of the two
    boundary-compatible lattices. Matrix mode parametrizes that lattice by
    the first k1-l alpha curves and the l page arcs; class mode uses the
    canonical basis of the computed intersection lattice. w2, when given,
    is w2_y(data), already computed.
    """
    c = (w2 or w2_y(data)).coefficients
    if isinstance(data, DiagramMatrices):
        sig = data.sig
        head = data.q_alpha_gamma.take_rows(range(data.k1 - sig.l))
        stacked = head.vstack(data.q_a_gamma)  # k1 x (g-p)
        m = stacked.transpose()
        sol = solve_mod2(m, c)
        return SpinVerdict(
            spin=sol is not None,
            witness=sol,
            basis="first k1-l alpha curves, then the l page arcs",
        )
    w = data.partial_intersection
    m = data.family_matrix("gamma").transpose().mul(w.basis)
    sol = solve_mod2(m, c)
    return SpinVerdict(
        spin=sol is not None,
        witness=sol,
        basis="canonical basis of L_alpha_partial cap L_beta_partial",
    )


def spin_z(d: Diagram, w2: W2Representative | None = None) -> SpinVerdict:
    """Spin existence via the doubling route.

    Solves <d, nu_i> = w2_i mod 2 over all surface-framed rel classes d;
    the witness is in the dual coordinates f_1..f_n. w2, when given, is
    w2_z(d), already computed.
    """
    c = (w2 or w2_z(d)).coefficients
    sol = solve_mod2(_stacked_curve_rows(d), c)
    return SpinVerdict(spin=sol is not None, witness=sol, basis="dual classes f_1..f_n")
