"""Concrete action of the deformed operators on the monomial basis.

The commutative monomial x^{n1} y^{n2} z^{n3} is encoded by its exponent
triple.  With q = exp(i*theta), the deformed coordinate X_j multiplies by
x_j after applying the diagonal factors beta(M_j) and q^{sum of higher
M_k}, and the deformed derivative d_j differentiates first and applies the
same diagonal factors afterwards.  On a single monomial:

    X_j:  coeff *= q^{S_j} * beta(n_j),          n_j -> n_j + 1
    d_j:  coeff *= n_j * beta(n_j - 1) * q^{S_j}, n_j -> n_j - 1

where S_j = sum_{k>j} n_k and beta(n) is the square root of the symmetric
q-number ratio (q^{2(n+1)} - 1) / ((q^2 - 1)(n + 1)).

First-order expansions in theta are provided in two modes.  "paper" keeps
the correction proportional to M_j + 1 in the beta factor; "rederived"
carries the second-order term of both numerator and denominator through
the expansion, which leaves a correction proportional to M_j instead.
The two modes differ at order theta and the scan utilities measure the
residual order of each against the exact action.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import GEN_NAMES, gen_code, raw_defining_relations
from .scalars import QScalar, SparseTerms, exponent_key

PRUNE_TOL = 1e-15

MODES = ("paper", "rederived")


def check_mode(mode: str) -> None:
    """Refuse a first-order convention other than those in MODES."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def at_removable_point(theta: float) -> bool:
    """True when q^2 = 1, i.e. theta is an exact float multiple of pi.

    At these points the defining ratio of beta is 0/0 with limit 1, and
    beta_exact returns that limit instead of dividing.
    """
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
        if not keys:
            return 0.0
        return max(abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) for k in keys)

    def __repr__(self):
        return f"MonomialVec({self.terms!r})"


def _higher_sum(n, axis: int) -> int:
    return sum(n[k] for k in range(axis + 1, 3))


def _shift(v: MonomialVec, axis: int, step: int, multiplier) -> MonomialVec:
    """Move every monomial of v one step (+1 or -1) along axis, times
    multiplier(n) of its exponents n; lowering drops n_axis = 0."""
    out: dict = {}
    for n, c in v.terms.items():
        if step < 0 and n[axis] == 0:
            continue
        key = tuple(n[k] + (step if k == axis else 0) for k in range(3))
        out[key] = out.get(key, 0.0) + c * multiplier(n)
    return v._new(v._clean(out))


def apply_exact(g, v: MonomialVec, theta: float) -> MonomialVec:
    """Exact action of one generator, extended linearly over v."""
    code = gen_code(g)
    axis = code % 3
    if code < 3:
        return _shift(v, axis, 1, lambda n: (
            cmath.exp(1j * theta * _higher_sum(n, axis)) * beta_exact(n[axis], theta)))
    return _shift(v, axis, -1, lambda n: (
        n[axis]
        * beta_exact(n[axis] - 1, theta)
        * cmath.exp(1j * theta * _higher_sum(n, axis))))


def apply_first_order(g, v: MonomialVec, theta: float, mode: str) -> MonomialVec:
    """First-order action: diagonal multiplier then shift.

    mode "paper" uses the beta correction (1/2)i*theta*(M_j + 1) read at
    the exponent the beta factor sees; mode "rederived" uses
    (1/2)i*theta*M_j at the same point.  Both add i*theta*S_j from the
    higher-index exponential.
    """
    code = gen_code(g)
    check_mode(mode)
    shift = 0 if mode == "paper" else -1
    axis = code % 3
    if code < 3:
        return _shift(v, axis, 1, lambda n: (
            1.0 + 1j * theta * (0.5 * (n[axis] + 1 + shift) + _higher_sum(n, axis))))
    return _shift(v, axis, -1, lambda n: n[axis] * (
        1.0 + 1j * theta * (0.5 * (n[axis] + shift) + _higher_sum(n, axis))))


def apply_word(word, v: MonomialVec, theta: float) -> MonomialVec:
    """Operator word acting right-to-left: (a, b) means a after b."""
    for code in reversed(word):
        v = apply_exact(code, v, theta)
    return v


def apply_poly(p, v: MonomialVec, theta: float) -> MonomialVec:
    """Numeric action of a symbolic polynomial (words with QScalar coefficients)."""
    terms = p.terms if hasattr(p, "terms") else p
    out = MonomialVec()
    for word, coeff in terms.items():
        coeff = QScalar.coerce(coeff)
        out = out + apply_word(word, v, theta).scale(coeff.substitute(theta))
    return out


def monomials_up_to(degree: int):
    """Yield every exponent triple with total degree at most the cutoff."""
    for n1 in range(degree + 1):
        for n2 in range(degree + 1 - n1):
            for n3 in range(degree + 1 - n1 - n2):
                yield (n1, n2, n3)


@dataclass(frozen=True)
class ResidualReport:
    theta: float
    degree_cutoff: int
    max_residual: float
    per_relation: dict

    def to_json(self):
        return {
            "theta": self.theta,
            "degree_cutoff": self.degree_cutoff,
            "max_residual": self.max_residual,
            "per_relation": dict(sorted(self.per_relation.items())),
        }


def relation_residual_numeric(theta: float, degree_cutoff: int) -> ResidualReport:
    """Apply both sides of every defining relation to all monomials of
    total degree <= degree_cutoff and record the worst coefficientwise
    discrepancy.
    """
    if degree_cutoff < 2:
        raise ValueError("degree cutoff must be at least 2")
    relations = raw_defining_relations()
    per_relation = {name: 0.0 for name, _, _ in relations}
    for n in monomials_up_to(degree_cutoff):
        vec = MonomialVec.basis(n)
        for name, lhs, rhs in relations:
            lhs_v = apply_poly(lhs, vec, theta)
            rhs_v = apply_poly(rhs, vec, theta)
            per_relation[name] = max(per_relation[name], lhs_v.diff_max(rhs_v))
    return ResidualReport(
        theta=theta,
        degree_cutoff=degree_cutoff,
        max_residual=max(per_relation.values()),
        per_relation=per_relation,
    )


@dataclass(frozen=True)
class ScanResult:
    generator: str
    mode: str
    slope: float | None
    exact_match: bool
    points: tuple  # pairs (theta, residual)

    def to_json(self):
        return {
            "generator": self.generator,
            "mode": self.mode,
            "slope": self.slope,
            "exact_match": self.exact_match,
            "points": [[t, r] for t, r in self.points],
        }


def expansion_order_scan(g, v: MonomialVec, theta_grid, mode: str) -> ScanResult:
    """Least-squares slope of log residual vs log theta.

    The residual compares apply_exact against apply_first_order in the
    requested mode.  Grid points where the residual vanishes identically
    are excluded from the fit; if every point vanishes the result is
    reported as an exact match with no slope.
    """
    thetas = [float(t) for t in theta_grid]
    if len(thetas) < 2 or min(thetas) <= 0:
        raise ValueError("theta grid must hold at least two positive values")
    if max(thetas) / min(thetas) < 100.0:
        raise ValueError("theta grid must span at least two decades")
    code = gen_code(g)
    points = []
    for theta in thetas:
        exact = apply_exact(code, v, theta)
        approx = apply_first_order(code, v, theta, mode)
        points.append((theta, (exact - approx).norm()))
    fit = [(t, r) for t, r in points if r > 0.0]
    if not fit:
        return ScanResult(
            generator=GEN_NAMES[code], mode=mode, slope=None,
            exact_match=True, points=tuple(points),
        )
    logs_t = np.log([t for t, _ in fit])
    logs_r = np.log([r for _, r in fit])
    slope = float(np.polyfit(logs_t, logs_r, 1)[0])
    return ScanResult(
        generator=GEN_NAMES[code], mode=mode, slope=slope,
        exact_match=False, points=tuple(points),
    )
