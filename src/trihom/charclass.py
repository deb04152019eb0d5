"""Linking matrices, a second Stiefel-Whitney representative, and spin tests.

Two independent routes. The y route works on the pairing data of a
standard-position diagram (native in matrix mode; class mode must assert
standard position and supply page arcs that complete both the alpha and
beta families to bases of their boundary-compatible lattices). The z route
needs only the curve classes and the arc system, so it is always available
in class mode.

The pairing data itself lives on the diagram objects, computed once and
kept: linking_y, page_pairing and page_basis on both Diagram and
DiagramMatrices, linking_z and curve_rows on Diagram. The functions here
validate the diagram and read it.

Output conventions: linking matrices are integer, but only their diagonals
are geometrically meaningful and only mod 2; w2 coefficients are the
diagonals reduced mod 2 against the stated curve basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import IntMatrix, solve_mod2
from .surface import Diagram, DiagramMatrices, require_valid


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


def linking_matrix_y(data: Diagram | DiagramMatrices) -> IntMatrix:
    """(g-p) x (g-p) linking matrix of the gamma curves, page route.

    Class mode raises PreconditionError with the diagram's
    standard_position_refusal when there is one."""
    require_valid(data)
    return data.linking_y


def linking_matrix_z(d: Diagram) -> IntMatrix:
    """3(g-p) x 3(g-p) linking matrix of all curves, doubling route.

    Computed in the standard arc configuration: the framing matrix S is
    configuration data, not a bilinear form, so the values do not depend
    on which arc basis the classes are later expressed in. A custom arc
    system in the diagram only affects the y route's page arcs.
    """
    require_valid(d)
    return d.linking_z


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


def spin_y(data: Diagram | DiagramMatrices) -> SpinVerdict:
    """Spin existence via the page route.

    Solves <d, gamma_i> = w2_i mod 2 for d in the intersection of the two
    boundary-compatible lattices, over the diagram's page_basis of it: the
    first k1-l alpha curves and the l page arcs in matrix mode, the
    canonical basis of the computed intersection lattice in class mode.
    """
    c = w2_y(data).coefficients  # first: it validates, and k1 bounds page_pairing's rows
    sol = solve_mod2(data.page_pairing.transpose(), c)
    return SpinVerdict(spin=sol is not None, witness=sol, basis=data.page_basis)


def spin_z(d: Diagram) -> SpinVerdict:
    """Spin existence via the doubling route.

    Solves <d, nu_i> = w2_i mod 2 over all surface-framed rel classes d;
    the witness is in the dual coordinates f_1..f_n.
    """
    c = w2_z(d).coefficients
    sol = solve_mod2(d.curve_rows, c)
    return SpinVerdict(spin=sol is not None, witness=sol, basis="dual classes f_1..f_n")
