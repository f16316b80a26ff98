import json
from fractions import Fraction

import pytest

from qweyl.cli import _json_default
from qweyl.effective import (
    assemble_effective,
    compare_to_reference,
    curl,
    divergence,
    drift_polynomials,
    expansion_bracket,
    first_order_action,
    generator_operator,
    hamiltonian_operator,
    magnetic_kinetic,
    state_symbol_hamiltonian,
)
from qweyl.gaussian import CPoly3, DiffOp3
from qweyl.reference import (
    REFERENCE_A,
    REFERENCE_DRIFT_A,
    REFERENCE_DRIFT_B,
    REFERENCE_GROUND_ACTIONS,
    REFERENCE_V_I,
    epsilon_cyclic,
    epsilon_full_sum,
)
from qweyl.scalars import GaussRat

from oracles import R_SQUARED, gaussian_expectation

HALF = Fraction(1, 2)
I = GaussRat(0, 1)
TH = CPoly3.theta()
VARS = tuple(CPoly3.variable(axis) for axis in range(3))


def as_json(report):
    """A report as the CLI writes it, read back."""
    return json.loads(json.dumps(report, default=_json_default))


def free_oscillator() -> DiffOp3:
    lap = DiffOp3()
    for axis in range(3):
        d = DiffOp3.partial(axis)
        lap = lap + d.compose(d)
    return lap.scale(-HALF) + DiffOp3.from_poly(R_SQUARED * HALF)


def test_ground_actions_match_reference_tables():
    for name, want in REFERENCE_GROUND_ACTIONS.items():
        assert first_order_action(name, "paper") == want


def test_ground_actions_rederived_shift_drifts_by_half_x():
    # dropping the constant half in the bracket shifts each drift by x_j/2
    for j in (1, 2, 3):
        axis = j - 1
        half_x = VARS[axis] * HALF
        d_want = -VARS[axis] + TH * (REFERENCE_DRIFT_A[axis] + half_x) * I
        x_want = VARS[axis] - TH * (REFERENCE_DRIFT_B[axis] + half_x) * I
        assert first_order_action(f"d{j}", "rederived") == d_want
        assert first_order_action(f"X{j}", "rederived") == x_want


def test_ground_action_undeformed_limit():
    for mode in ("paper", "rederived"):
        assert first_order_action("X1", mode).theta_slice(0) == VARS[0]
        assert first_order_action("d2", mode).theta_slice(0) == -VARS[1]


def test_drift_polynomials_read_back():
    a, b = drift_polynomials("paper")
    assert a == REFERENCE_DRIFT_A
    assert b == REFERENCE_DRIFT_B


def test_mode_validation():
    with pytest.raises(ValueError):
        expansion_bracket(0, "exact")
    with pytest.raises(ValueError):
        assemble_effective("Paper")


def test_assembly_vector_potential_and_real_part():
    eff = assemble_effective("paper")
    assert eff["a"] == REFERENCE_A
    assert eff["v_r"] == R_SQUARED * HALF
    assert eff["mismatch"].is_zero()


def test_assembly_imaginary_part_closed_form():
    eff = assemble_effective("paper")
    assert eff["v_i"] == -(TH * R_SQUARED * (R_SQUARED - 1)) * HALF
    # the sign matters downstream: probability initially drains
    assert gaussian_expectation(eff["v_i"]) == CPoly3({(0, 0, 0, 1): Fraction(-9, 8)})


def test_assembly_imaginary_part_differs_from_reference_table():
    eff = assemble_effective("paper")
    assert eff["v_i"] != REFERENCE_V_I


def test_parity_structure_of_both_imaginary_potentials():
    # the reference table entry is odd, so its Gaussian average vanishes;
    # the assembled one is even with a strictly negative average
    assert all((a + b + c) % 2 == 1 for a, b, c, _ in REFERENCE_V_I.terms)
    assert gaussian_expectation(REFERENCE_V_I).is_zero()
    eff = assemble_effective("paper")
    assert all((a + b + c) % 2 == 0 for a, b, c, _ in eff["v_i"].terms)


def test_assembly_theta_zero_limit():
    for mode in ("paper", "rederived"):
        eff = assemble_effective(mode)
        assert all(p.theta_slice(0).is_zero() for p in eff["a"])
        assert eff["v_i"].theta_slice(0).is_zero()
        assert eff["v_r"] == R_SQUARED * HALF
        assert state_symbol_hamiltonian(mode).theta_slice(0) == free_oscillator()


def test_assembly_rederived_mode():
    eff = assemble_effective("rederived")
    half_x = tuple(v * HALF for v in VARS)
    want_a = tuple(
        TH * (REFERENCE_DRIFT_A[i] + half_x[i]) for i in range(3)
    )
    assert eff["a"] == want_a
    assert eff["v_i"] == -(TH * R_SQUARED * R_SQUARED) * HALF
    assert eff["v_r"] == R_SQUARED * HALF
    assert eff["mismatch"].is_zero()


def test_reassembly_detects_tampering():
    eff = assemble_effective("paper")
    operator = state_symbol_hamiltonian("paper")
    good = magnetic_kinetic(eff["a"]) + DiffOp3.from_poly(eff["v_r"] + eff["v_i"] * I)
    assert good == operator
    zeroed = (CPoly3(),) + tuple(eff["a"][1:])
    bad = magnetic_kinetic(zeroed) + DiffOp3.from_poly(eff["v_r"] + eff["v_i"] * I)
    assert not (operator - bad).is_zero()


def test_curl_of_gradient_vanishes():
    grad = tuple(R_SQUARED.derivative(axis) for axis in range(3))
    assert all(p.is_zero() for p in curl(grad))


def test_curl_of_reference_vector_potential():
    b = curl(REFERENCE_A)
    assert b[0] == TH * VARS[1] * VARS[2] * (-2)
    assert b[1] == TH * VARS[0] * VARS[2] * 2
    assert b[2] == TH * VARS[0] * VARS[1] * (-2)
    assert divergence(b).is_zero()


def test_magnetic_field_z_slot_flagged():
    rep = compare_to_reference(assemble_effective("paper"))
    assert rep["b_flagged_slots"] == [2]
    assert rep["b_diff"][2] == TH * (
        VARS[1] * VARS[2] * 2 - VARS[0] * VARS[1] * 2
    )
    assert rep["div_b"].is_zero()
    assert all(p.is_zero() for p in rep["a_diff"])
    assert not rep["v_i_diff"].is_zero()


def test_epsilon_readings():
    assert all(p.is_zero() for p in epsilon_full_sum())
    cyc = epsilon_cyclic()
    assert cyc[0] == TH * VARS[1] * VARS[2] * 2
    assert cyc[1] == TH * VARS[2] * VARS[0] * 2
    assert cyc[2] == TH * VARS[0] * VARS[1] * 2


def test_epsilon_verdicts_against_componentwise_table():
    rep = compare_to_reference(assemble_effective("paper"))
    # the summed reading misses every nonzero slot
    assert [p.is_zero() for p in rep["epsilon_full_diff"]] == [False, False, False]
    # the cyclic reading agrees on the middle slot only
    assert [p.is_zero() for p in rep["epsilon_cyclic_diff"]] == [False, True, False]


def test_discrepancy_report_json():
    rep = as_json(compare_to_reference(assemble_effective("paper")))
    assert rep["a_matches"] is True
    assert rep["v_i_matches"] is False
    assert rep["b_flagged_slots"] == [2]
    assert rep["div_b_zero"] is True
    assert rep["b_computed"][0] == {"(0,1,1)": [[-2.0, 0.0, 1]]}


def test_effective_hamiltonian_json():
    doc = as_json(assemble_effective("paper"))
    assert doc["mode"] == "paper"
    assert doc["mismatch_zero"] is True
    assert doc["v_r"] == {
        "(0,0,2)": [[0.5, 0.0, 0]],
        "(0,2,0)": [[0.5, 0.0, 0]],
        "(2,0,0)": [[0.5, 0.0, 0]],
    }


def test_composed_route_ground_state_action():
    # the honest operator composition acts on the ground state as
    # (3/2 + i theta E) with a fixed quadratic E
    acted = hamiltonian_operator("paper").apply(CPoly3.one())
    e_poly = (
        CPoly3.coerce(Fraction(9, 4))
        - CPoly3({(2, 0, 0, 0): Fraction(3, 2)})
        - CPoly3({(0, 2, 0, 0): Fraction(5, 2)})
        - CPoly3({(0, 0, 2, 0): Fraction(7, 2)})
    )
    assert acted == CPoly3.coerce(Fraction(3, 2)) + TH * e_poly * I


def test_composed_route_ground_energy():
    want = CPoly3.coerce(Fraction(3, 2)) + CPoly3(
        {(0, 0, 0, 1): GaussRat(0, Fraction(-3, 2))}
    )
    acted = hamiltonian_operator("paper").apply(CPoly3.one())
    assert gaussian_expectation(acted) == want
    want_red = CPoly3.coerce(Fraction(3, 2)) + CPoly3({(0, 0, 0, 1): GaussRat(0, -3)})
    acted = hamiltonian_operator("rederived").apply(CPoly3.one())
    assert gaussian_expectation(acted) == want_red


def test_composed_route_theta_zero_is_free_oscillator():
    for mode in ("paper", "rederived"):
        assert hamiltonian_operator(mode).theta_slice(0) == free_oscillator()


def test_two_routes_differ_at_first_order():
    sym = state_symbol_hamiltonian("paper")
    op = hamiltonian_operator("paper")
    assert sym != op
    assert not (sym - op).theta_slice(1).is_zero()
    assert (sym - op).theta_slice(0).is_zero()


def test_generator_operator_structure():
    # coordinate generators have no derivative at theta^0, derivative
    # generators are pure first derivatives there
    x2 = generator_operator("X2", "paper")
    assert x2.theta_slice(0) == DiffOp3.from_poly(VARS[1])
    d3 = generator_operator("d3", "paper")
    assert d3.theta_slice(0) == DiffOp3.partial(2)
    assert generator_operator(4, "paper") == generator_operator("d2", "paper")
