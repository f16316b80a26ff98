"""Symbolic calculus on polynomial-times-Gaussian wavefunctions.

CPoly3 is a commutative polynomial in (x, y, z) and a formal deformation
symbol theta, with exact Gaussian-rational coefficients.  DiffOp3 is a
polynomial-coefficient differential operator.  A state p * exp(-r^2/2)
is held as its CPoly3 prefactor p against the fixed, implicit envelope;
the ground state is the unit prefactor CPoly3.one() (an overall
normalization scales out of every identity checked here).
Differentiating through the envelope uses

    d/dx_j (p * exp(-r^2/2)) = (dp/dx_j - x_j p) * exp(-r^2/2),

so every operator action maps a prefactor to a prefactor.  Operator
composition follows the Leibniz rule

    (p D^a) (r D^b) = sum_{g <= a} C(a, g) p (D^{a-g} r) D^{g+b}.

Deformation bookkeeping is first order: operators discard theta powers
above 1 after every product.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from math import comb

from .scalars import GaussRat, SparseTerms, exponent_key


class CPoly3(SparseTerms):
    """Polynomial in x, y, z, theta with GaussRat coefficients, keyed by
    (a, b, c, t): the exponents of x, y, z and the theta power."""

    __slots__ = ()
    _scalars = (int, Fraction, GaussRat)
    _unit_key = (0, 0, 0, 0)
    _coerce = staticmethod(GaussRat.coerce)

    def _key(self, key):
        return exponent_key(key, 4)

    # ------------------------------------------------------- constructors

    @staticmethod
    def one() -> "CPoly3":
        return CPoly3.coerce(1)

    @staticmethod
    def variable(axis: int) -> "CPoly3":
        key = [0, 0, 0, 0]
        key[axis] = 1
        return CPoly3({tuple(key): 1})

    @staticmethod
    def theta() -> "CPoly3":
        return CPoly3({(0, 0, 0, 1): 1})

    def __mul__(self, other):
        return self._convolve(other, _add_keys)

    __rmul__ = __mul__

    # --------------------------------------------------------- structure

    def derivative(self, axis: int) -> "CPoly3":
        terms = {}
        for key, coeff in self.terms.items():
            if key[axis] == 0:
                continue
            new = list(key)
            new[axis] -= 1
            terms[tuple(new)] = coeff * key[axis]
        return self._new(terms)

    def truncate_theta(self) -> "CPoly3":
        """Drop theta^2 and higher: the calculus is first order in theta."""
        return self._new({k: c for k, c in self.terms.items() if k[3] <= 1})

    def theta_slice(self, degree: int) -> "CPoly3":
        """Coefficient of theta^degree, with the theta factor removed."""
        return self._new({
            (k[0], k[1], k[2], 0): c for k, c in self.terms.items() if k[3] == degree
        })

    def real_imag_split(self):
        """(re, im) with self = re + i*im, both with real coefficients."""
        re, im = {}, {}
        for key, coeff in self.terms.items():
            if coeff.re != 0:
                re[key] = GaussRat(coeff.re)
            if coeff.im != 0:
                im[key] = GaussRat(coeff.im)
        return self._new(re), self._new(im)

    def to_json(self):
        """Canonical JSON: {"(a,b,c)": sorted rows [re, im, theta_degree]}."""
        grouped: dict = {}
        for (a, b, c, t), coeff in sorted(self.terms.items()):
            grouped.setdefault((a, b, c), []).append(
                [float(coeff.re), float(coeff.im), t]
            )
        return {
            f"({a},{b},{c})": sorted(rows, key=lambda r: r[2])
            for (a, b, c), rows in sorted(grouped.items())
        }


def _add_keys(k1, k2) -> tuple:
    return (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2], k1[3] + k2[3])


class DiffOp3(SparseTerms):
    """Sum of CPoly3 coefficients times partial-derivative monomials.

    terms maps (dx, dy, dz) derivative orders to CPoly3 coefficients.
    Every coefficient and product discards theta powers above 1,
    keeping the whole calculus first order.
    """

    __slots__ = ()

    def _key(self, key):
        return exponent_key(key, 3)

    @staticmethod
    def _coerce(poly):
        return CPoly3.coerce(poly).truncate_theta()

    @staticmethod
    def identity() -> "DiffOp3":
        return DiffOp3({(0, 0, 0): 1})

    @staticmethod
    def from_poly(poly) -> "DiffOp3":
        """Multiplication operator."""
        return DiffOp3({(0, 0, 0): poly})

    @staticmethod
    def partial(axis: int) -> "DiffOp3":
        key = [0, 0, 0]
        key[axis] = 1
        return DiffOp3({tuple(key): 1})

    @staticmethod
    def scaling(axis: int) -> "DiffOp3":
        """The operator x_axis d/dx_axis, diagonal on monomials."""
        key = [0, 0, 0]
        key[axis] = 1
        return DiffOp3({tuple(key): CPoly3.variable(axis)})

    def compose(self, other: "DiffOp3") -> "DiffOp3":
        """Operator product self after other, via the Leibniz rule."""
        terms: dict = {}
        for alpha, p in self.terms.items():
            for beta, r in other.terms.items():
                for gamma in iter_product(*(range(a + 1) for a in alpha)):
                    coeff = 1
                    for a, g in zip(alpha, gamma):
                        coeff *= comb(a, g)
                    shifted = r
                    for axis in range(3):
                        for _ in range(alpha[axis] - gamma[axis]):
                            shifted = shifted.derivative(axis)
                    if shifted.is_zero():
                        continue
                    key = tuple(g + b for g, b in zip(gamma, beta))
                    self._accumulate(terms, key, p * shifted * coeff)
        return self._new(self._clean(terms))

    def apply(self, f: CPoly3) -> CPoly3:
        """Act on f * exp(-r^2/2); returns the new prefactor."""
        total = CPoly3()
        for key, poly in self.terms.items():
            g = f
            for axis in (2, 1, 0):
                for _ in range(key[axis]):
                    # chain rule through the envelope
                    g = g.derivative(axis) - CPoly3.variable(axis) * g
            total = total + poly * g
        return total.truncate_theta()

    def theta_slice(self, degree: int) -> "DiffOp3":
        """Operator made of the theta^degree parts, theta factor removed."""
        return self._new(self._clean(
            {k: p.theta_slice(degree) for k, p in self.terms.items()}
        ))

    def axis_terms(self):
        """Yield (complex coefficient, ((a, dx), (b, dy), (c, dz))) for
        each term coeff * x^a y^b z^c d^dx d^dy d^dz, in insertion order;
        the operator must be theta-free."""
        for (dx, dy, dz), poly in self.terms.items():
            for (a, b, c, t), coeff in poly.terms.items():
                if t != 0:
                    raise ValueError(
                        "operator still carries theta; take a theta slice first"
                    )
                yield complex(coeff), ((a, dx), (b, dy), (c, dz))

    def to_json(self):
        return {
            f"d({k[0]},{k[1]},{k[2]})": p.to_json()
            for k, p in sorted(self.terms.items())
        }

