"""First-order effective dynamics on the Gaussian ground state.

Two assembly routes are implemented and deliberately kept separate:

- generator_operator / hamiltonian_operator compose the expanded
  generators as honest differential operators via the Leibniz rule,
  third derivatives and all.  The matrix layer builds H1 from its closed
  form; this route feeds its Kronecker and quadrature references.

- assemble_effective replaces each generator by the
  multiplication-plus-derivative symbol read off its ground-state
  action, squares those, and decomposes the result into a magnetic
  kinetic term, a real potential, and an imaginary potential.  This
  route leaves a zero extraction residual by construction.

The two routes agree at theta = 0 and differ at first order; the
comparison report and the README record where.
"""

from __future__ import annotations

from .algebra import gen_code
from .gaussian import CPoly3, DiffOp3
from .realization import check_mode
from .reference import (
    REFERENCE_A,
    REFERENCE_B,
    REFERENCE_V_I,
    epsilon_cyclic,
    epsilon_full_sum,
)
from .scalars import HALF, I_UNIT, GaussRat


def expansion_bracket(axis: int, mode: str) -> DiffOp3:
    """First-order multiplier [1 + i theta (...)] attached to one axis.

    The bracket carries half the scaling operator of its own axis plus
    the full scaling of every later axis.  paper mode keeps a constant
    half from the shifted count; rederived mode drops it.
    """
    check_mode(mode)
    i_theta = CPoly3.theta() * I_UNIT
    half_i_theta = i_theta * HALF
    op = DiffOp3.identity() + DiffOp3.scaling(axis).scale(half_i_theta)
    if mode == "paper":
        op = op + DiffOp3.from_poly(half_i_theta)
    for k in range(axis + 1, 3):
        op = op + DiffOp3.scaling(k).scale(i_theta)
    return op


def generator_operator(g, mode: str) -> DiffOp3:
    """Expanded generator as a differential operator.

    Coordinate generators multiply by their variable after the bracket;
    derivative generators apply the bracket after the derivative.
    """
    code = gen_code(g)
    axis = code % 3
    bracket = expansion_bracket(axis, mode)
    if code < 3:
        return DiffOp3.from_poly(CPoly3.variable(axis)).compose(bracket)
    return bracket.compose(DiffOp3.partial(axis))


def first_order_action(g, mode: str) -> CPoly3:
    """Prefactor of an expanded generator acting on the Gaussian ground
    state."""
    return generator_operator(g, mode).apply(CPoly3.one())


def drift_polynomials(mode: str):
    """Drift polynomials (a, b) read off the ground-state actions.

    Derivative generators act as (-x_j + i theta a_j) times the state,
    coordinate generators as (x_j - i theta b_j) times it.
    """
    a = tuple(
        first_order_action(f"d{j}", mode).theta_slice(1) * -I_UNIT
        for j in (1, 2, 3)
    )
    b = tuple(
        first_order_action(f"X{j}", mode).theta_slice(1) * I_UNIT
        for j in (1, 2, 3)
    )
    return a, b


def hamiltonian_operator(mode: str) -> DiffOp3:
    """Oscillator Hamiltonian with every generator expanded in place.

    Composes the operator forms honestly, so the first-order part
    includes second- and third-derivative terms.
    """
    total = DiffOp3()
    for j in (1, 2, 3):
        d_op = generator_operator(f"d{j}", mode)
        x_op = generator_operator(f"X{j}", mode)
        total = total + (x_op.compose(x_op) - d_op.compose(d_op)).scale(HALF)
    return total


def state_symbol_hamiltonian(mode: str) -> DiffOp3:
    """Hamiltonian with each generator replaced by its ground-state
    symbol: (d_j + i theta a_j) for derivatives, multiplication by
    (x_j - i theta b_j) for coordinates."""
    a, b = drift_polynomials(mode)
    i_theta = CPoly3.theta() * I_UNIT
    total = DiffOp3()
    for axis in range(3):
        sd = DiffOp3.partial(axis) + DiffOp3.from_poly(i_theta * a[axis])
        sx = DiffOp3.from_poly(CPoly3.variable(axis) - i_theta * b[axis])
        total = total + (sx.compose(sx) - sd.compose(sd)).scale(HALF)
    return total


def magnetic_kinetic(a_field) -> DiffOp3:
    """Half the square of (p - A) with p = +i d/dx, through first order.

    Expands to -(1/2) Laplacian - i sum A_j d_j - (i/2) sum A_j'; the
    A^2 term is second order and drops.
    """
    total = DiffOp3()
    for axis in range(3):
        d = DiffOp3.partial(axis)
        total = total + d.compose(d).scale(-HALF)
        total = total + d.scale(a_field[axis] * -I_UNIT)
        total = total + DiffOp3.from_poly(
            a_field[axis].derivative(axis) * -I_UNIT * HALF
        )
    return total


def curl(field) -> tuple:
    """Symbolic curl of a 3-component polynomial field."""
    fx, fy, fz = field
    return (
        fz.derivative(1) - fy.derivative(2),
        fx.derivative(2) - fz.derivative(0),
        fy.derivative(0) - fx.derivative(1),
    )


def divergence(field) -> CPoly3:
    out = CPoly3()
    for axis in range(3):
        out = out + field[axis].derivative(axis)
    return out


def assemble_effective(mode: str) -> dict:
    """Extract (A, V_R, V_I) from the state-symbol Hamiltonian, as the
    report {mode, a, v_r, v_i, mismatch, mismatch_zero}.

    A_j is i times the first-derivative coefficient, matching the
    p = +i d/dx kinetic expansion, so a holds the vector potential
    components with theta included.  Adding back the kinetic term's own
    -(i/2) A' piece to the zero-derivative remainder leaves the scalar
    potential, split into the real v_r and the imaginary v_i.  mismatch
    is whatever survives subtracting the reassembled decomposition from
    the operator; a nonzero mismatch is reported, never dropped.
    """
    check_mode(mode)
    h = state_symbol_hamiltonian(mode)
    a_field = []
    for axis in range(3):
        key = tuple(1 if i == axis else 0 for i in range(3))
        a_field.append(h.terms.get(key, CPoly3()) * I_UNIT)
    a_field = tuple(a_field)
    remainder = h.terms.get((0, 0, 0), CPoly3())
    half_i = GaussRat(0, HALF)
    for axis in range(3):
        remainder = remainder + a_field[axis].derivative(axis) * half_i
    v_r, v_i = remainder.real_imag_split()
    reassembled = magnetic_kinetic(a_field) + DiffOp3.from_poly(v_r + v_i * I_UNIT)
    mismatch = h - reassembled
    return {"mode": mode, "a": a_field, "v_r": v_r, "v_i": v_i,
            "mismatch": mismatch, "mismatch_zero": mismatch.is_zero()}


def compare_to_reference(eff: dict) -> dict:
    """Slot-by-slot diff of an assemble_effective report against the
    frozen reference tables.

    The magnetic field b_computed is the curl of the computed vector
    potential; b_flagged_slots lists the components whose diff is
    nonzero.  Both epsilon readings of the compact formula are evaluated
    and diffed against the componentwise table as well, since the table
    and the formula disagree with each other.
    """
    a_diff = tuple(eff["a"][i] - REFERENCE_A[i] for i in range(3))
    v_i_diff = eff["v_i"] - REFERENCE_V_I
    b_computed = curl(eff["a"])
    b_diff = tuple(b_computed[i] - REFERENCE_B[i] for i in range(3))
    div_b = divergence(b_computed)
    eps_full = epsilon_full_sum()
    eps_cyc = epsilon_cyclic()
    return {
        "mode": eff["mode"],
        "a_diff": a_diff,
        "a_matches": all(p.is_zero() for p in a_diff),
        "v_i_diff": v_i_diff,
        "v_i_matches": v_i_diff.is_zero(),
        "b_computed": b_computed,
        "b_diff": b_diff,
        "b_flagged_slots": [i for i, p in enumerate(b_diff) if not p.is_zero()],
        "div_b": div_b,
        "div_b_zero": div_b.is_zero(),
        "epsilon_full_sum": eps_full,
        "epsilon_cyclic": eps_cyc,
        "epsilon_full_diff": tuple(eps_full[i] - REFERENCE_B[i] for i in range(3)),
        "epsilon_cyclic_diff": tuple(eps_cyc[i] - REFERENCE_B[i] for i in range(3)),
    }
