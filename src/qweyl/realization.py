"""Concrete action of the deformed operators on the monomial basis.

The commutative monomial x^{n1} y^{n2} z^{n3} is encoded by its exponent
triple.  With q = exp(i*theta), the deformed coordinate X_j multiplies by
x_j after applying the diagonal factors beta(M_j) and q^{sum of higher
M_k}, and the deformed derivative d_j differentiates first and applies the
same diagonal factors afterwards.  So each letter maps one monomial to
one monomial:

    X_j:  coeff *= q^{S_j} * beta(n_j),          n_j -> n_j + 1
    d_j:  coeff *= n_j * beta(n_j - 1) * q^{S_j}, n_j -> n_j - 1

where S_j = sum_{k>j} n_k and beta(n) is the square root of the symmetric
q-number ratio (q^{2(n+1)} - 1) / ((q^2 - 1)(n + 1)).  A word acts on a
monomial as one scalar chain (_image), pruned after each letter as a
MonomialVec is, with beta(k) and q^s from tables filled once per call.
A word shifts all monomials alike, so their images never meet, and both
scans act on a block of monomials as one vector: the relation scan shares
a word's image of a block among the relations, and the order scan shares
the exact action at each theta between both modes.

First-order expansions in theta are provided in two modes.  "paper" keeps
the correction proportional to M_j + 1 in the beta factor; "rederived"
carries the second-order term of both numerator and denominator through
the expansion, which leaves a correction proportional to M_j instead.
The two modes differ at order theta and the scan utilities measure the
residual order of each against the exact action.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from .algebra import GEN_NAMES, gen_code, raw_defining_relations
from .scalars import QScalar, SparseTerms, exponent_key

PRUNE_TOL = 1e-15
# Monomials the relation scan acts on at once, as one vector.
RESIDUAL_BLOCK = 8

MODES = ("paper", "rederived")


def check_mode(mode: str) -> None:
    """Refuse a first-order convention other than those in MODES."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def at_removable_point(theta: float) -> bool:
    """True when q^2 = 1, i.e. theta is an exact float multiple of pi, where
    beta's defining ratio is 0/0 and beta_exact returns its limit 1."""
    return math.fmod(theta, math.pi) == 0.0


def beta_exact(n: int, theta: float) -> complex:
    """Principal branch of the diagonal square-root factor at eigenvalue n.

    Evaluated in the cancellation-free form
        beta(n)^2 = exp(i*theta*n) * sin((n+1)*theta) / ((n+1)*sin(theta)),
    which equals the defining q-number ratio identically and stays
    accurate for small theta.  beta(0) is exactly 1, and the removable
    singularity at theta = 0 mod pi returns the limit value 1 (see
    at_removable_point).
    """
    if n < 0:
        raise ValueError("beta_exact needs n >= 0")
    if at_removable_point(theta):
        return 1.0 + 0.0j
    ratio = math.sin((n + 1) * theta) / ((n + 1) * math.sin(theta))
    return cmath.sqrt(cmath.exp(1j * theta * n) * ratio)


class MonomialVec(SparseTerms):
    """Finitely supported map from exponent triples to complex coefficients.

    Coefficients with magnitude at or below PRUNE_TOL are dropped on
    construction and by arithmetic, keeping the support finite under
    rounding noise.
    """

    __slots__ = ()
    _coerce = staticmethod(complex)

    def _key(self, key):
        return exponent_key(key, 3)

    @staticmethod
    def _is_zero(value) -> bool:
        return not abs(value) > PRUNE_TOL

    @staticmethod
    def basis(n) -> "MonomialVec":
        return MonomialVec({tuple(n): 1.0})

    def norm(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for v in self.terms.values()))

    def diff_max(self, other) -> float:
        """Largest coefficientwise discrepancy against another vector."""
        keys = set(self.terms) | set(other.terms)
        diffs = (abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) for k in keys)
        return max(diffs, default=0.0)


class _Table(dict):
    """f(key, theta) at one theta, computed on the first lookup of key."""

    __slots__ = ("f", "theta")

    def __init__(self, f, theta: float):
        self.f, self.theta = f, theta

    def __missing__(self, key):
        value = self[key] = self.f(key, self.theta)
        return value


def _phase(s: int, theta: float) -> complex:
    return cmath.exp(1j * theta * s)


def _tables(theta: float) -> tuple:
    return _Table(beta_exact, theta), _Table(_phase, theta)


def _image(letters, n, c, theta, tables=None, shift=0):
    """(exponents, coefficient) of c x^n under the letters, or None once it
    vanishes: exact factors from tables, else first-order ones with shift;
    each letter sets c = 0.0 + c * factor, pruned as MonomialVec prunes."""
    n = list(n)
    for code in letters:
        axis = code % 3
        k, higher = n[axis], sum(n[axis + 1:])
        if code < 3:
            factor = (tables[1][higher] * tables[0][k] if tables else
                      1.0 + 1j * theta * (0.5 * (k + 1 + shift) + higher))
            n[axis] = k + 1
        elif k == 0:
            return None
        else:
            factor = (k * tables[0][k - 1] * tables[1][higher] if tables else
                      k * (1.0 + 1j * theta * (0.5 * (k + shift) + higher)))
            n[axis] = k - 1
        c = 0.0 + c * factor
        if not abs(c) > PRUNE_TOL:
            return None
    return tuple(n), c


def _act(letters, v: MonomialVec, theta, tables=None, shift=0) -> dict:
    """Images of v's terms in v's order; each letter shifts all alike, so none meet."""
    out = {}
    for n, c in v.terms.items():
        if image := _image(letters, n, c, theta, tables, shift):
            out[image[0]] = image[1]
    return out


def apply_first_order(g, v: MonomialVec, theta: float, mode: str) -> MonomialVec:
    """First-order action, diagonal multiplier then shift: the beta correction
    (1/2)i*theta*(M_j + 1) in mode "paper" or (1/2)i*theta*M_j in "rederived",
    at the exponent beta sees, plus i*theta*S_j from the higher exponential."""
    code = gen_code(g)
    check_mode(mode)
    return v._new(_act((code,), v, theta, shift=0 if mode == "paper" else -1))


def apply_word(word, v: MonomialVec, theta: float) -> MonomialVec:
    """Operator word acting right-to-left: (a, b) means a after b."""
    letters = tuple(gen_code(g) for g in reversed(word))
    return v._new(_act(letters, v, theta, _tables(theta)))


def _side(p, theta: float) -> list:
    """(codes right to left, substituted coefficient) for each word of p."""
    return [(tuple(gen_code(g) for g in reversed(word)),
             QScalar.coerce(coeff).substitute(theta))
            for word, coeff in getattr(p, "terms", p).items()]


def _apply_side(side, v: MonomialVec, tables, memo: dict) -> MonomialVec:
    """Sum of coefficient times word on v over side, as scale and + give it."""
    out = {}
    for letters, f in side:
        if letters not in memo:
            memo[letters] = _act(letters, v, None, tables)
        for n, c in memo[letters].items():
            c = c * f
            if abs(c) > PRUNE_TOL:
                v._accumulate(out, n, c)
    return v._new(out)


def apply_poly(p, v: MonomialVec, theta: float) -> MonomialVec:
    """Numeric action of a symbolic polynomial (words with QScalar coefficients)."""
    return _apply_side(_side(p, theta), v, _tables(theta), {})


def monomials_up_to(degree: int):
    """Yield every exponent triple with total degree at most the cutoff."""
    for n1 in range(degree + 1):
        for n2 in range(degree + 1 - n1):
            for n3 in range(degree + 1 - n1 - n2):
                yield (n1, n2, n3)


def relation_residual_numeric(theta: float, degree_cutoff: int) -> dict:
    """Apply both sides of every defining relation to all monomials of
    total degree <= degree_cutoff, RESIDUAL_BLOCK at a time, and report
    the worst coefficientwise discrepancy, per relation (per_relation) and
    over all (max_residual), with theta and degree_cutoff.
    """
    if degree_cutoff < 2:
        raise ValueError("degree cutoff must be at least 2")
    tables = _tables(theta)
    relations = [(name, _side(lhs, theta), _side(rhs, theta))
                 for name, lhs, rhs in raw_defining_relations()]
    per_relation = {name: 0.0 for name, _, _ in relations}
    monomials = monomials_up_to(degree_cutoff)
    while block := list(itertools.islice(monomials, RESIDUAL_BLOCK)):
        vec = MonomialVec(dict.fromkeys(block, 1.0))
        memo = {}  # word -> its image of vec, shared by the relations
        for name, lhs, rhs in relations:
            lhs_v = _apply_side(lhs, vec, tables, memo)
            rhs_v = _apply_side(rhs, vec, tables, memo)
            per_relation[name] = max(per_relation[name], lhs_v.diff_max(rhs_v))
    return {"theta": theta, "degree_cutoff": degree_cutoff,
            "max_residual": max(per_relation.values()), "per_relation": per_relation}


def expansion_order_scan(g, monomials, theta_grid) -> list:
    """Least-squares slopes of log residual vs log theta: per monomial (an
    exponent triple), a report {generator, mode, slope, exact_match, points}
    for each mode in MODES order.

    The residual compares the exact action, apply_word on the one-letter
    word, against apply_first_order in the mode, on the monomials as one
    vector, at the monomial's image; points holds the pairs
    [theta, residual].  Grid points where the residual vanishes
    identically are excluded from the fit; if every point vanishes the
    result is reported as an exact match with no slope.
    """
    thetas = [float(t) for t in theta_grid]
    if len(thetas) < 2 or min(thetas) <= 0:
        raise ValueError("theta grid must hold at least two positive values")
    if max(thetas) / min(thetas) < 100.0:
        raise ValueError("theta grid must span at least two decades")
    code = gen_code(g)
    monomials = [tuple(n) for n in monomials]
    v = MonomialVec(dict.fromkeys(monomials, 1.0))
    shift = [(j == code % 3) * (1 if code < 3 else -1) for j in range(3)]
    images = [tuple(map(sum, zip(n, shift))) for n in monomials]
    points = [[[] for _ in MODES] for _ in images]
    for t in thetas:
        exact = v._new(_act((code,), v, t, _tables(t)))
        for m, mode in enumerate(MODES):
            diff = (exact - apply_first_order(code, v, t, mode)).terms
            for rows, key in zip(points, images):  # norm() of the one term, bit for bit
                d = diff.get(key)
                rows[m].append([t, 0.0 if d is None else math.sqrt(abs(d) ** 2)])
    return [[_order_report(code, mode, pts) for mode, pts in zip(MODES, rows)]
            for rows in points]


def _order_report(code: int, mode: str, points: list) -> dict:
    fit = np.log([(t, r) for t, r in points if r > 0.0]).reshape(-1, 2)
    slope = float(np.polyfit(*fit.T, 1)[0]) if len(fit) else None
    return {"generator": GEN_NAMES[code], "mode": mode, "slope": slope,
            "exact_match": slope is None, "points": points}
