import cmath
import json
import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest

from qweyl.algebra import (
    GEN_NAMES,
    d_code,
    gen_code,
    normalize,
    raw_defining_relations,
    x_code,
)
from qweyl import realization
from qweyl.cli import SCAN_MONOMIALS, RunConfig, _json_default, cmd_expand_scan
from qweyl.effective import expansion_bracket, generator_operator
from qweyl.fock import build_h_eff
from qweyl.scalars import GaussRat, QScalar
from qweyl.realization import (
    MODES,
    PRUNE_TOL,
    MonomialVec,
    apply_first_order,
    apply_poly,
    apply_word,
    at_removable_point,
    beta_exact,
    check_mode,
    expansion_order_scan,
    monomials_up_to,
    relation_residual_numeric,
)

GRID = [10 ** (-4 + 3 * k / 12) for k in range(13)]  # 1e-4 .. 1e-1


def apply_exact(g, v, theta):
    """Exact action of one generator: apply_word on the one-letter word."""
    return apply_word((g,), v, theta)


def dumped(report) -> str:
    """A report's JSON text as the CLI writes it, bit for bit."""
    return json.dumps(report, sort_keys=True, default=_json_default)


def beta_oracle(n, theta, dps=50):
    """High-precision evaluation of the defining q-number ratio."""
    with mpmath.workdps(dps):
        q = mpmath.exp(1j * mpmath.mpf(theta))
        num = q ** (2 * (n + 1)) - 1
        den = (q ** 2 - 1) * (n + 1)
        val = mpmath.sqrt(num / den)
        return complex(val)


# -------------------------------------------------------------------- beta

def test_beta_zero_is_exactly_one():
    for theta in (0.0, 0.01, 0.3, 1.2, math.pi / 2, 2.9):
        assert beta_exact(0, theta) == 1.0 + 0.0j


def test_beta_one_closed_form():
    # factoring q^4 - 1 = (q^2 - 1)(q^2 + 1) gives beta(1) = sqrt((q^2+1)/2)
    for theta in (0.01, 0.25, 1.0):
        want = cmath.sqrt((cmath.exp(2j * theta) + 1) / 2)
        assert abs(beta_exact(1, theta) - want) < 1e-14


def test_beta_against_high_precision_oracle():
    for n in range(7):
        for theta in (0.001, 0.01, 0.3, 1.1, 2.5):
            want = beta_oracle(n, theta)
            got = beta_exact(n, theta)
            assert abs(got - want) < 1e-13, (n, theta)


def test_beta_removable_points():
    for theta in (0.0, math.pi, -math.pi, 2 * math.pi):
        assert at_removable_point(theta)
        for n in range(5):
            assert beta_exact(n, theta) == 1.0 + 0.0j
    assert not at_removable_point(0.01)
    # just off the singular point the value is finite and near the limit
    near = beta_exact(3, math.pi - 1e-8)
    assert abs(near - 1.0) < 1e-4


def test_beta_rejects_negative_n():
    with pytest.raises(ValueError):
        beta_exact(-1, 0.1)


# ------------------------------------------------------------- monomial vec

def test_monomialvec_prunes_small_coefficients():
    v = MonomialVec({(0, 0, 0): 1.0, (1, 0, 0): 1e-16})
    assert list(v.terms) == [(0, 0, 0)]


def test_monomialvec_rejects_negative_exponents():
    with pytest.raises(ValueError):
        MonomialVec({(0, -1, 0): 1.0})


def test_apply_exact_coordinate_examples():
    theta = 0.37
    # X3 on the constant monomial: beta(0) = 1 and an empty higher sum
    out = apply_exact("X3", MonomialVec.basis((0, 0, 0)), theta)
    assert out.terms == {(0, 0, 1): 1.0 + 0.0j}
    # X1 on (0,1,2): picks up q^{n2+n3} = q^3
    out = apply_exact("X1", MonomialVec.basis((0, 1, 2)), theta)
    assert set(out.terms) == {(1, 1, 2)}
    assert abs(out.terms[(1, 1, 2)] - cmath.exp(3j * theta)) < 1e-15


def test_apply_exact_derivative_examples():
    theta = 0.37
    out = apply_exact("d3", MonomialVec.basis((0, 0, 1)), theta)
    assert out.terms == {(0, 0, 0): 1.0 + 0.0j}
    # derivative kills a zero exponent
    out = apply_exact("d2", MonomialVec.basis((1, 0, 4)), theta)
    assert out.is_zero()


def test_apply_exact_is_linear():
    theta = 0.11
    v = MonomialVec({(1, 2, 0): 2.0, (0, 0, 3): -1.5j})
    lhs = apply_exact("d3", v, theta)
    rhs = apply_exact("d3", MonomialVec.basis((1, 2, 0)), theta).scale(2.0) + \
        apply_exact("d3", MonomialVec.basis((0, 0, 3)), theta).scale(-1.5j)
    assert lhs.diff_max(rhs) < 1e-15


# -------------------------------------------------- numeric relation checks

def test_relation_residuals_all_thetas():
    for theta in (0.001, 0.01, 0.1, 0.5):
        report = relation_residual_numeric(theta, 4)
        assert report["max_residual"] <= 1e-12, (theta, report["per_relation"])


def test_relation_residuals_classical_limit():
    report = relation_residual_numeric(0.0, 6)
    assert report["max_residual"] <= 1e-14


def test_relation_residual_rejects_small_cutoff():
    with pytest.raises(ValueError):
        relation_residual_numeric(0.1, 1)


def test_relation_residual_memory_flat_in_degree():
    # the scan holds one block of RESIDUAL_BLOCK monomials at a time, so
    # its traced peak does not grow with the cutoff; holding the whole basis
    # (about 440 B per monomial) would add some 44 KiB for the 100
    # monomials from 3 to 7
    def traced_peak(degree):
        tracemalloc.start()
        try:
            relation_residual_numeric(0.01, degree)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    relation_residual_numeric(0.01, 7)  # warm-up: caches and free lists
    low, high = traced_peak(3), traced_peak(7)
    assert high - low < 16 * 1024, (low, high)


def test_diagonal_relation_on_xyz():
    # d1 X1 - q^2 X1 d1 - 1 - (q^2-1)(X2 d2 + X3 d3) annihilates xyz
    theta = 0.01
    qsq = cmath.exp(2j * theta)
    v = MonomialVec.basis((1, 1, 1))
    lhs = apply_word((d_code(1), x_code(1)), v, theta)
    lhs = lhs - apply_word((x_code(1), d_code(1)), v, theta).scale(qsq)
    lhs = lhs - v
    for k in (2, 3):
        lhs = lhs - apply_word((x_code(k), d_code(k)), v, theta).scale(qsq - 1)
    assert lhs.norm() < 1e-13


def test_normalize_commutes_with_numeric_action():
    # rewriting is sound for the concrete operators: a random word and its
    # canonical form act identically on monomials
    rng = random.Random(99)
    theta = 0.23
    for _ in range(60):
        word = tuple(rng.choices(range(6), k=rng.randint(1, 4)))
        mono = tuple(rng.randint(0, 3) for _ in range(3))
        v = MonomialVec.basis(mono)
        direct = apply_word(word, v, theta)
        via_normal = apply_poly(normalize({word: QScalar.one()}), v, theta)
        assert direct.diff_max(via_normal) < 1e-12, (word, mono)


# ------------------------------------------------------ first-order action

def test_first_order_paper_multiplier_at_zero():
    theta = 0.05
    out = apply_first_order("X1", MonomialVec.basis((0, 0, 0)), theta, "paper")
    assert abs(out.terms[(1, 0, 0)] - (1 + 0.5j * theta)) < 1e-16


def test_first_order_rederived_matches_exact_at_zero_exponent():
    theta = 0.05
    out = apply_first_order("X1", MonomialVec.basis((0, 0, 0)), theta, "rederived")
    exact = apply_exact("X1", MonomialVec.basis((0, 0, 0)), theta)
    assert out.terms[(1, 0, 0)] == 1.0 + 0.0j
    assert out.diff_max(exact) == 0.0


def test_first_order_at_theta_zero_equals_exact():
    v = MonomialVec({(2, 1, 0): 1.0, (0, 3, 2): 0.5j})
    for g in ("X1", "X2", "X3", "d1", "d2", "d3"):
        for mode in ("paper", "rederived"):
            a = apply_first_order(g, v, 0.0, mode)
            b = apply_exact(g, v, 0.0)
            assert a.diff_max(b) == 0.0


def symbol_on_monomial(op, n, theta) -> MonomialVec:
    """A DiffOp3 applied to x^n with no Gaussian envelope, at theta: the
    sum over its terms of coefficient times d^key x^n."""
    out = {}
    for key, poly in op.terms.items():
        if any(k > m for k, m in zip(key, n)):
            continue
        scale = math.prod(math.perm(m, k) for m, k in zip(n, key))
        for (a, b, c, t), coeff in poly.terms.items():
            mono = (n[0] - key[0] + a, n[1] - key[1] + b, n[2] - key[2] + c)
            out[mono] = out.get(mono, 0) + scale * complex(coeff) * theta ** t
    return MonomialVec(out)


@pytest.mark.parametrize("mode", MODES)
def test_symbolic_and_numeric_first_order_multipliers_agree(mode):
    # the first-order multipliers are written twice: as the float factors
    # of apply_first_order and as the symbolic expansion_bracket inside
    # generator_operator; on bare monomials the two must act alike
    theta = 0.013
    for code in range(6):
        op = generator_operator(code, mode)
        for n in ((0, 0, 0), (1, 0, 0), (0, 1, 2), (2, 3, 1), (4, 0, 3), (3, 3, 3)):
            want = apply_first_order(code, MonomialVec.basis(n), theta, mode)
            got = symbol_on_monomial(op, n, theta)
            assert set(got.terms) == set(want.terms), (code, n)
            assert got.diff_max(want) <= 1e-15 * max(1.0, want.norm()), (code, n)


def test_first_order_unknown_mode():
    with pytest.raises(ValueError):
        apply_first_order("X1", MonomialVec.basis((0, 0, 0)), 0.1, "exact")


@pytest.mark.parametrize("refuse", [
    lambda mode: apply_first_order("X1", MonomialVec.basis((0, 0, 0)), 0.1, mode),
    lambda mode: expansion_bracket(0, mode),
    lambda mode: build_h_eff(4, 0.0, mode),  # theta 0 builds no first-order part
], ids=["apply_first_order", "expansion_bracket", "build_h_eff"])
def test_bad_mode_refused_by_check_mode(refuse):
    with pytest.raises(ValueError) as want:
        check_mode("exact")
    with pytest.raises(ValueError) as got:
        refuse("exact")
    assert str(got.value) == str(want.value)


def test_scan_rederived_slope_two():
    for g in ("X1", "d1"):
        res = expansion_order_scan(g, [(1, 1, 1)], GRID)[0][MODES.index("rederived")]
        assert not res["exact_match"]
        assert abs(res["slope"] - 2.0) < 0.1, (g, res["slope"])


def test_scan_paper_slope_one_at_zero_exponent():
    res = expansion_order_scan("X1", [(0, 0, 0)], GRID)[0][MODES.index("paper")]
    assert abs(res["slope"] - 1.0) < 0.1


def test_scan_exact_match_paths():
    # d3 on (1,1,1) in rederived mode reproduces the exact action, so the
    # residual vanishes at every grid point
    res = expansion_order_scan("d3", [(1, 1, 1)], GRID)[0][MODES.index("rederived")]
    assert res["exact_match"] and res["slope"] is None
    # d1 lowers n1 = 0 to nothing in both actions, in both modes
    assert all(res["exact_match"] and not any(r for _, r in res["points"])
               for res in expansion_order_scan("d1", [(0, 2, 1)], GRID)[0])


def test_scan_rejects_degenerate_grid():
    with pytest.raises(ValueError):
        expansion_order_scan("X1", [(1, 0, 0)], [0.01, 0.02])
    with pytest.raises(ValueError):
        expansion_order_scan("X1", [(1, 0, 0)], [0.01])


def test_scan_result_serializes():
    res = expansion_order_scan("X1", [(2, 2, 2)], GRID)[0][MODES.index("rederived")]
    js = json.loads(dumped(res))
    assert js["generator"] == "X1" and js["mode"] == "rederived"
    assert len(js["points"]) == len(GRID)


def test_monomials_up_to_counts():
    assert len(list(monomials_up_to(0))) == 1
    assert len(list(monomials_up_to(6))) == 84  # C(9,3)
    assert all(sum(m) <= 3 for m in monomials_up_to(3))


# ------------------------------------------- the per-letter sparse-pass oracle
#
# The reference applies each letter as one pass over a sparse vector: a
# fresh dict, a multiplier per monomial and a cleaned MonomialVec.  The
# one-monomial chain of qweyl.realization must reproduce it bit for bit,
# term order included.

def _higher_sum(n, axis):
    return sum(n[k] for k in range(axis + 1, 3))


def _shift_pass(v, axis, step, multiplier):
    out = {}
    for n, c in v.terms.items():
        if step < 0 and n[axis] == 0:
            continue
        key = tuple(n[k] + (step if k == axis else 0) for k in range(3))
        out[key] = out.get(key, 0.0) + c * multiplier(n)
    return v._new(v._clean(out))


def oracle_exact(g, v, theta):
    code = gen_code(g)
    axis = code % 3
    if code < 3:
        return _shift_pass(v, axis, 1, lambda n: (
            cmath.exp(1j * theta * _higher_sum(n, axis)) * beta_exact(n[axis], theta)))
    return _shift_pass(v, axis, -1, lambda n: (
        n[axis]
        * beta_exact(n[axis] - 1, theta)
        * cmath.exp(1j * theta * _higher_sum(n, axis))))


def oracle_first_order(g, v, theta, mode):
    code = gen_code(g)
    check_mode(mode)
    shift = 0 if mode == "paper" else -1
    axis = code % 3
    if code < 3:
        return _shift_pass(v, axis, 1, lambda n: (
            1.0 + 1j * theta * (0.5 * (n[axis] + 1 + shift) + _higher_sum(n, axis))))
    return _shift_pass(v, axis, -1, lambda n: n[axis] * (
        1.0 + 1j * theta * (0.5 * (n[axis] + shift) + _higher_sum(n, axis))))


def oracle_word(word, v, theta):
    for code in reversed(word):
        v = oracle_exact(code, v, theta)
    return v


def oracle_poly(p, v, theta):
    terms = p.terms if hasattr(p, "terms") else p
    out = MonomialVec()
    for word, coeff in terms.items():
        coeff = QScalar.coerce(coeff)
        out = out + oracle_word(word, v, theta).scale(coeff.substitute(theta))
    return out


def oracle_diff_max(a, b):
    keys = set(a.terms) | set(b.terms)
    if not keys:
        return 0.0
    return max(abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) for k in keys)


def oracle_residual_json(theta, degree):
    relations = raw_defining_relations()
    per_relation = {name: 0.0 for name, _, _ in relations}
    for n in monomials_up_to(degree):
        vec = MonomialVec.basis(n)
        for name, lhs, rhs in relations:
            diff = oracle_diff_max(oracle_poly(lhs, vec, theta),
                                   oracle_poly(rhs, vec, theta))
            per_relation[name] = max(per_relation[name], diff)
    return {
        "theta": theta,
        "degree_cutoff": degree,
        "max_residual": max(per_relation.values()),
        "per_relation": dict(sorted(per_relation.items())),
    }


def oracle_scan_json(g, v, thetas, mode):
    code = gen_code(g)
    points = []
    for theta in map(float, thetas):
        exact = oracle_exact(code, v, theta)
        approx = oracle_first_order(code, v, theta, mode)
        points.append((theta, (exact - approx).norm()))
    fit = [(t, r) for t, r in points if r > 0.0]
    slope = None
    if fit:
        logs_t = np.log([t for t, _ in fit])
        logs_r = np.log([r for _, r in fit])
        slope = float(np.polyfit(logs_t, logs_r, 1)[0])
    return {
        "generator": GEN_NAMES[code],
        "mode": mode,
        "slope": slope,
        "exact_match": not fit,
        "points": [[t, r] for t, r in points],
    }


def same_terms(got, want):
    """Equal coefficients bit for bit (signed zeros too) in the same key order."""
    return repr(list(got.terms.items())) == repr(list(want.terms.items()))


ORACLE_THETAS = (0.0, 1e-4, 0.01, 0.3, 2.0, math.pi)


@pytest.mark.parametrize("degree", [2, 5, 8])
@pytest.mark.parametrize("theta", ORACLE_THETAS)
def test_relation_residual_matches_sparse_pass_oracle(theta, degree):
    got = relation_residual_numeric(theta, degree)
    assert dumped(got) == dumped(oracle_residual_json(theta, degree))


def random_vec(rng):
    """The constant monomial (so every derivative lowers some n_j = 0), two
    to four random complex terms and one just above PRUNE_TOL, shuffled."""
    terms = {(0, 0, 0): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))}
    size = rng.randint(3, 5)
    while len(terms) < size:
        mono = tuple(rng.randint(0, 3) for _ in range(3))
        terms[mono] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    near = tuple(rng.randint(0, 3) for _ in range(3))
    while near in terms:
        near = tuple(rng.randint(0, 3) for _ in range(3))
    terms[near] = 1.2 * PRUNE_TOL
    keys = list(terms)
    rng.shuffle(keys)
    return MonomialVec({k: terms[k] for k in keys})


@pytest.mark.parametrize("theta", ORACLE_THETAS)
def test_actions_match_sparse_pass_oracle_on_random_words(theta):
    rng = random.Random(int(1e6 * theta) + 7)
    for _ in range(60):
        v = random_vec(rng)
        assert len(v.terms) >= 4  # the near-threshold term survived construction
        for code in range(6):
            assert same_terms(apply_exact(code, v, theta), oracle_exact(code, v, theta))
            for mode in MODES:
                assert same_terms(apply_first_order(code, v, theta, mode),
                                  oracle_first_order(code, v, theta, mode))
        word = tuple(rng.randrange(6) for _ in range(rng.randint(0, 10)))
        assert same_terms(apply_word(word, v, theta), oracle_word(word, v, theta)), word
        poly = {tuple(rng.randrange(6) for _ in range(rng.randint(0, 10))):
                QScalar({rng.randint(-3, 3): GaussRat(rng.randint(-3, 3), rng.randint(-3, 3))})
                for _ in range(rng.randint(1, 4))}
        assert same_terms(apply_poly(poly, v, theta), oracle_poly(poly, v, theta)), poly
        normal = normalize({word: QScalar.one()})
        assert same_terms(apply_poly(normal, v, theta), oracle_poly(normal, v, theta))


def test_chain_prunes_after_every_letter():
    # |X1 factor| at n1 = 5 and theta = 0.3 is |beta(5)| = 0.741, so the
    # 1.2e-15 term falls to 8.9e-16 and is dropped at the first letter,
    # though d1 would then multiply it by 6 |beta(5)| = 4.45
    v = MonomialVec({(0, 0, 0): 1.0, (5, 0, 0): 1.2 * PRUNE_TOL})
    word = (d_code(1), x_code(1))
    for got, want in ((apply_exact("X1", v, 0.3), oracle_exact("X1", v, 0.3)),
                      (apply_word(word, v, 0.3), oracle_word(word, v, 0.3))):
        assert same_terms(got, want)
        assert (6, 0, 0) not in got.terms and (5, 0, 0) not in got.terms
    # lowering n_j = 0 drops the term, on its own and inside a word
    v = MonomialVec({(0, 0, 0): 1.0, (0, 3, 1): 0.5})
    word = (d_code(1), x_code(2))
    for got, want in ((apply_exact("d1", v, 0.3), oracle_exact("d1", v, 0.3)),
                      (apply_word(word, v, 0.3), oracle_word(word, v, 0.3))):
        assert same_terms(got, want)
        assert got.is_zero()


@pytest.mark.parametrize("call", [
    lambda v: apply_exact(6, v, 0.1),
    lambda v: apply_exact("Y1", v, 0.1),
    lambda v: apply_first_order(-1, v, 0.1, "paper"),
    lambda v: apply_word((0, 7, 3), v, 0.1),
    lambda v: apply_poly({(2, 9): QScalar.one()}, v, 0.1),
], ids=["exact-code", "exact-name", "first-order", "word", "poly"])
def test_bad_generator_code_raises(call):
    for v in (MonomialVec.basis((1, 1, 1)), MonomialVec()):
        with pytest.raises(ValueError, match="generator"):
            call(v)


def test_expand_scan_results_match_sparse_pass_oracle():
    thetas = np.geomspace(1e-4, 1e-1, 13)
    count = 0
    # the blocks cmd_expand_scan scans
    for monomials in (SCAN_MONOMIALS, ((0, 0, 0),)):
        for code in range(6):
            scans = expansion_order_scan(code, monomials, thetas)
            for mono, reports in zip(monomials, scans, strict=True):
                v = MonomialVec.basis(mono)
                for mode, got in zip(MODES, reports, strict=True):
                    assert dumped(got) == dumped(oracle_scan_json(code, v, thetas, mode))
                    count += 1
    assert count == 72


def test_expand_scan_builds_tables_per_theta_generator_and_block(monkeypatch):
    # 13 thetas x 6 generators x 2 blocks (interior, origin); a scan per
    # monomial and mode would build 936
    thetas = []
    tables = realization._tables
    monkeypatch.setattr(realization, "_tables",
                        lambda theta: thetas.append(theta) or tables(theta))
    assert cmd_expand_scan(RunConfig(), None)["ok"]
    assert len(thetas) == 156
