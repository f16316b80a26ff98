"""Acceptance gate: the ten release criteria at their stated tolerances.

Each criterion prints one [PASS]/[FAIL] line (also appended to
acceptance_report.txt at the repository root) and then asserts.  Two
clauses fail by design against the package's own computed truths; their
failure messages point at the "Known discrepancies" section of the
README rather than being weakened to pass.
"""

import json
import random
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from qweyl.algebra import (
    QScalar,
    check_relation,
    defining_relations,
)
from qweyl.cli import main as cli_main
from qweyl.dynamics import (
    decay_operator,
    initial_norm_rate,
    norm_flow_check,
    propagate,
)
from qweyl.effective import (
    assemble_effective,
    compare_to_reference,
    hamiltonian_operator,
)
from qweyl.fock import FockBasis, build_h1_matrix, build_h_eff, h0_diagonal, sparsity_pattern
from qweyl.gaussian import CPoly3
from qweyl.quadrature import element_3d
from qweyl.realization import (
    MonomialVec,
    expansion_order_scan,
    relation_residual_numeric,
)
from qweyl.reference import (
    REFERENCE_A,
    REFERENCE_GROUND_ACTIONS,
    REFERENCE_V_I,
)
from qweyl.effective import first_order_action

from oracles import R_SQUARED, normalize_by_rewriting

REPORT_PATH = Path(__file__).resolve().parent.parent / "acceptance_report.txt"
DISCREPANCY_POINTER = "see README, section 'Known discrepancies'"


@pytest.fixture(scope="module", autouse=True)
def _fresh_report():
    REPORT_PATH.write_text("")
    yield


def record(tag: str, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {tag}: {label}{suffix}"
    print(line)
    with open(REPORT_PATH, "a") as fh:
        fh.write(line + "\n")


# --------------------------------------------------------------- criterion 1

def test_criterion_01_symbolic_relations_and_confluence():
    t0 = time.monotonic()
    reports = [check_relation(lhs, rhs, name) for name, lhs, rhs in defining_relations()]
    relations_ok = len(reports) == 15 and all(r["holds"] for r in reports)
    rng = random.Random(12345)
    confluent = True
    for n in range(500):
        word = tuple(rng.choices(range(6), k=rng.randint(1, 6)))
        src = {word: QScalar.one()}
        left = normalize_by_rewriting(src, "leftmost")
        right = normalize_by_rewriting(src, "rightmost")
        shuffled = normalize_by_rewriting(src, "random", seed=n)
        if not (left == right == shuffled):
            confluent = False
            break
    elapsed = time.monotonic() - t0
    ok = relations_ok and confluent and elapsed < 10.0
    record("1", "symbolic relation suite and 500-word confluence", ok,
           f"{elapsed:.1f}s")
    assert relations_ok
    assert confluent
    assert elapsed < 10.0


# --------------------------------------------------------------- criterion 2

def test_criterion_02_numeric_relation_residuals():
    t0 = time.monotonic()
    residuals = {
        theta: relation_residual_numeric(theta, 6)["max_residual"]
        for theta in (0.001, 0.01, 0.1, 0.5)
    }
    elapsed = time.monotonic() - t0
    worst = max(residuals.values())
    ok = worst <= 1e-12 and elapsed < 30.0
    record("2", "numeric relation residuals at degree 6", ok,
           f"worst {worst:.2e}, {elapsed:.1f}s")
    for theta, value in residuals.items():
        assert value <= 1e-12, f"theta={theta}: residual {value:.3e}"
    assert elapsed < 30.0


# --------------------------------------------------------------- criterion 3

def test_criterion_03_expansion_order_slopes():
    thetas = np.geomspace(1e-4, 1e-1, 13)
    monomials = ((2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3, 3))
    rederived = []
    paper_interior = []
    for code in range(6):
        for mono in monomials:
            vec = MonomialVec.basis(mono)
            res = expansion_order_scan(code, vec, thetas, "rederived")
            if res["slope"] is not None:
                rederived.append(res["slope"])
            pres = expansion_order_scan(code, vec, thetas, "paper")
            if pres["slope"] is not None:
                paper_interior.append(pres["slope"])
    origin = MonomialVec.basis((0, 0, 0))
    paper_origin = []
    for name in ("X1", "X2", "X3"):
        res = expansion_order_scan(name, origin, thetas, "paper")
        assert res["slope"] is not None
        paper_origin.append(res["slope"])
    slopes_ok = all(1.9 <= s <= 2.1 for s in rederived)
    origin_ok = all(0.9 <= s <= 1.1 for s in paper_origin)
    ok = slopes_ok and origin_ok and len(rederived) >= 25
    record(
        "3", "first-order residual slopes", ok,
        f"rederived {min(rederived):.3f}..{max(rederived):.3f}, "
        f"measured mode=paper interior {min(paper_interior):.3f}.."
        f"{max(paper_interior):.3f}, origin {min(paper_origin):.3f}.."
        f"{max(paper_origin):.3f}",
    )
    assert len(rederived) >= 25
    assert slopes_ok, f"rederived slopes outside [1.9, 2.1]: {rederived}"
    assert origin_ok, f"mode=paper origin slopes outside [0.9, 1.1]: {paper_origin}"


# --------------------------------------------------------------- criterion 4

def test_criterion_04_ground_state_actions_exact():
    mismatches = [
        name
        for name, want in REFERENCE_GROUND_ACTIONS.items()
        if first_order_action(name, "paper") != want
    ]
    ok = not mismatches
    record("4", "all six first-order ground-state actions exact", ok,
           f"mismatches: {mismatches or 'none'}")
    assert ok, mismatches


# --------------------------------------------------------------- criterion 5

def test_criterion_05a_vector_potential_matches_reference():
    eff = assemble_effective("paper")
    ok = all((eff["a"][j] - REFERENCE_A[j]).is_zero() for j in range(3))
    record("5a", "vector potential matches the reference table exactly", ok)
    assert ok


def test_criterion_05b_imaginary_potential_matches_reference():
    eff = assemble_effective("paper")
    diff = eff["v_i"] - REFERENCE_V_I
    ok = diff.is_zero()
    record("5b", "imaginary potential matches the reference table exactly", ok,
           "computed form is parity-even; reference form is odd")
    assert ok, (
        "the assembled imaginary potential is -theta/2 * r^2 (r^2 - 1), an even "
        "polynomial, while the reference table lists an odd one; no composition "
        f"of the even pipeline can produce it -- {DISCREPANCY_POINTER}"
    )


def test_criterion_05c_extraction_residual_zero():
    eff = assemble_effective("paper")
    ok = eff["mismatch"].is_zero()
    record("5c", "potential extraction residual is exactly zero", ok)
    assert ok


def test_criterion_05d_real_potential_leading_part():
    eff = assemble_effective("paper")
    expected = R_SQUARED * Fraction(1, 2)
    ok = eff["v_r"].theta_slice(0) == expected
    record("5d", "real potential theta^0 part is exactly r^2/2", ok)
    assert ok


# --------------------------------------------------------------- criterion 6

def test_criterion_06_magnetic_field_and_conventions():
    rep = compare_to_reference(assemble_effective("paper"))
    xy_match = rep["b_diff"][0].is_zero() and rep["b_diff"][1].is_zero()
    div_zero = rep["div_b"].is_zero()
    z_flagged = rep["b_flagged_slots"] == [2]
    z_oracle = rep["b_computed"][2] == CPoly3({(1, 1, 0, 1): Fraction(-2)})
    full_sum_vanishes = all(p.is_zero() for p in rep["epsilon_full_sum"])
    cyclic_pattern = [p.is_zero() for p in rep["epsilon_cyclic_diff"]] == [False, True, False]
    ok = (xy_match and div_zero and z_flagged and z_oracle
          and full_sum_vanishes and cyclic_pattern)
    record("6", "magnetic field components, divergence, and epsilon conventions",
           ok, "x,y match; z slot flagged with curl oracle -2*theta*x*y")
    assert xy_match
    assert div_zero
    assert z_flagged
    assert z_oracle
    assert full_sum_vanishes, "full-sum epsilon convention should collapse to zero"
    assert cyclic_pattern, "cyclic epsilon should agree with the computed field only in the y slot"


# --------------------------------------------------------------- criterion 7

def test_criterion_07_matrix_elements_cross_validated():
    t0 = time.monotonic()
    theta = 0.01
    h = build_h_eff(10, theta, "paper")
    first_order = (h.matrix - np.diag(h0_diagonal(10))) / theta
    op = hamiltonian_operator("paper").theta_slice(1)
    basis = FockBasis(10)
    states = [s for s in basis.states() if sum(s) <= 3]
    worst = 0.0
    for n in states:
        for m in states:
            ladder = first_order[basis.index(n), basis.index(m)]
            quad = element_3d(op, n, m)
            worst = max(worst, abs(ladder - quad))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 120.0
    record("7", "ladder matrix elements vs quadrature (quanta <= 3)", ok,
           f"worst {worst:.2e} over {len(states)}^2 pairs, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 120.0


# --------------------------------------------------------------- criterion 8

def test_criterion_08_mixing_conjecture_verdict():
    reports = {}
    for n_max in (6, 8, 10):
        h1 = build_h1_matrix(n_max, "paper")
        reports[n_max] = sparsity_pattern(h1, FockBasis(n_max))
    offset_sets = {n: rep["offsets"] for n, rep in reports.items()}
    stable = offset_sets[6] == offset_sets[8] == offset_sets[10]
    fractions = {n: rep["outside_weight_fraction"] for n, rep in reports.items()}
    quantitative = all(0.0 < f < 1.0 for f in fractions.values())
    rerun = sparsity_pattern(build_h1_matrix(6, "paper"), FockBasis(6))
    reproducible = json.dumps(rerun, sort_keys=True) == json.dumps(
        reports[6], sort_keys=True
    )
    verdict = all(rep["outside_conjecture"] for rep in reports.values())
    ok = stable and quantitative and reproducible and verdict
    record(
        "8", "coupling sparsity cutoff-stable with quantitative verdict", ok,
        "outside-weight fraction "
        + ", ".join(f"N={n}: {fractions[n]:.4f}" for n in sorted(fractions)),
    )
    assert stable, f"offset sets differ across cutoffs: {offset_sets}"
    assert quantitative
    assert reproducible
    assert verdict


# --------------------------------------------------------------- criterion 9

_C9_ELAPSED = {}


@lru_cache(maxsize=1)
def _deformed_run():
    t0 = time.monotonic()
    h = build_h_eff(10, 0.01, "paper")
    traj = propagate(h, FockBasis(10).vector((0, 0, 0)), T=1.0, dt=1e-3)
    _C9_ELAPSED["deformed"] = time.monotonic() - t0
    return h, traj


def test_criterion_09a_unitarity_undeformed():
    t0 = time.monotonic()
    h = build_h_eff(10, 0.0, "paper")
    traj = propagate(h, FockBasis(10).vector((0, 0, 0)), T=10.0, dt=1e-3)
    drift = float(np.max(np.abs(traj.norms - 1.0)))
    _C9_ELAPSED["unitarity"] = time.monotonic() - t0
    ok = drift <= 1e-10
    record("9a", "norm conservation at theta=0 over T=10", ok, f"drift {drift:.2e}")
    assert ok


def test_criterion_09b_decay_oracle():
    t0 = time.monotonic()
    basis = FockBasis(10)
    psi0 = basis.vector((0, 0, 0))
    worst = 0.0
    for alpha in (0.1, 0.5, 1.0):
        h = decay_operator(10, alpha)
        traj = propagate(h, psi0, T=5.0, dt=1e-3)
        exact = np.exp(-2.0 * alpha * traj.times)
        worst = max(worst, float(np.max(np.abs(traj.norms - exact))))
    _C9_ELAPSED["decay"] = time.monotonic() - t0
    ok = worst <= 1e-8
    record("9b", "closed-form decay law for three sink strengths", ok,
           f"worst deviation {worst:.2e}")
    assert ok


def test_criterion_09c_norm_flow_identity():
    h, traj = _deformed_run()
    t0 = time.monotonic()
    deviation = norm_flow_check(traj)
    _C9_ELAPSED["flow"] = time.monotonic() - t0
    ok = deviation <= 1e-6
    record("9c", "norm-flow identity dP/dt = 2<H_I> at dt=1e-3", ok,
           f"max deviation {deviation:.2e}")
    assert ok


def test_criterion_09d_initial_rate_vanishes():
    h, traj = _deformed_run()
    rate = initial_norm_rate(traj)
    elapsed = sum(_C9_ELAPSED.values())
    runtime_ok = elapsed < 120.0
    ok = abs(rate) <= 1e-9 and runtime_ok
    record("9d", "dP/dt(0) = 0 from the even ground state", ok,
           f"measured rate {rate:.6f}, dynamics total "
           f"{'under' if runtime_ok else 'not under'} 120 s")
    assert runtime_ok
    assert abs(rate) <= 1e-9, (
        f"the ground state loses norm at rate {rate:.6f} = -3*theta, fixed by "
        "its nonzero imaginary energy; the rate is not zero -- "
        f"{DISCREPANCY_POINTER}"
    )


# -------------------------------------------------------------- criterion 10

def test_criterion_10_cli_determinism(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "theta=0.01\nnmax=6\ndegree=3\nmode=paper\nT=1.0\ndt=0.01\n"
        "alpha=0.5\nformat=csv\n"
    )
    commands = ("verify-algebra", "expand-scan", "effective", "spectrum",
                "mixing", "evolve")
    mismatched = []
    for command in commands:
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{command}-{run}"
            rc = cli_main([command, "--config", str(config), "--out", str(out)])
            assert rc == 0, f"{command} run {run} exited {rc}"
            name = command.replace("-", "_") + ".json"
            payload = json.loads((out / name).read_text())
            payload.pop("timestamp")
            csvs = {
                p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))
            }
            outputs.append((payload, csvs))
        if outputs[0] != outputs[1]:
            mismatched.append(command)
    ok = not mismatched
    record("10", "CLI reruns byte-identical modulo timestamp", ok,
           f"commands checked: {len(commands)}")
    assert ok, f"nondeterministic commands: {mismatched}"
