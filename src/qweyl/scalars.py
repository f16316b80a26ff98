"""Exact scalar arithmetic for the symbolic layer.

- GaussRat: a complex number a + b*i with both parts exact rationals,
  each held as a Python int while it is integral.
- SparseTerms: the immutable, zero-dropping term map that QScalar here
  and CPoly3, DiffOp3, NCPoly and MonomialVec elsewhere are built on.
- QScalar: a Laurent polynomial in a formal unit-modulus symbol q, with
  GaussRat coefficients.  All algebraic identities of the deformed algebra
  are verified with q kept formal, so no floating point enters until a
  caller explicitly substitutes q = exp(i*theta).
"""

from __future__ import annotations

import cmath
import operator
from fractions import Fraction


def _as_part(x):
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussRat:
    """Gaussian rational re + im*i; each part is an int when integral and
    a Fraction otherwise.  A part turns fractional only by arithmetic
    with a fractional operand, such as a product with HALF."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_part(re))
        object.__setattr__(self, "im", _as_part(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    @classmethod
    def _int(cls, re: int) -> "GaussRat":
        """re + 0i for a plain int re, unchecked, as SparseTerms._new."""
        out = object.__new__(cls)
        object.__setattr__(out, "re", re)
        object.__setattr__(out, "im", 0)
        return out

    @staticmethod
    def coerce(x) -> "GaussRat":
        if isinstance(x, GaussRat):
            return x
        return GaussRat(x)

    def __add__(self, other):
        other = GaussRat.coerce(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other):
        other = GaussRat.coerce(other)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = GaussRat.coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"GaussRat({self.re})"
        return f"GaussRat({self.re}, {self.im})"


#: the imaginary unit and one half as exact scalars
I_UNIT = GaussRat(0, 1)
HALF = Fraction(1, 2)


class SparseTerms:
    """Immutable finite map key -> nonzero coefficient, the shared core of
    QScalar, CPoly3, DiffOp3, NCPoly and MonomialVec.

    A subclass supplies its key check (_key), its coefficient ring
    (_coerce, _is_zero) and its own product.  The public constructor
    validates keys and coefficients.  Results built by the arithmetic
    here are clean by construction and skip it.
    Accumulation pops a key whose coefficient cancels, so a key that
    comes back is re-appended: floating-point consumers sum in this
    insertion order, so it is part of the result.
    """

    __slots__ = ("terms",)

    #: plain numbers an operand may be, lifted to a constant at _unit_key
    _scalars: tuple = ()
    _unit_key = None

    def __init__(self, terms=None):
        keyed = {self._key(k): c for k, c in terms.items()} if terms else {}
        object.__setattr__(self, "terms", self._clean(keyed))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -------------------- per-class hooks; every subclass adds _key and _coerce

    def _is_zero(self, coeff) -> bool:
        return coeff.is_zero()

    # ------------------------------------------------ trusted builders

    def _new(self, terms) -> "SparseTerms":
        """Same class as self, over already-clean terms."""
        out = object.__new__(type(self))
        object.__setattr__(out, "terms", terms)
        return out

    def _clean(self, terms) -> dict:
        """Coerce every coefficient into the ring and drop the zeros."""
        clean = {}
        for key, coeff in terms.items():
            coeff = self._coerce(coeff)
            if not self._is_zero(coeff):
                clean[key] = coeff
        return clean

    def _accumulate(self, terms, key, coeff) -> None:
        """terms[key] += coeff, popping the key when the sum is zero."""
        old = terms.get(key)
        if old is not None:
            coeff = old + coeff
        if self._is_zero(coeff):
            terms.pop(key, None)
        else:
            terms[key] = coeff

    @classmethod
    def _operand(cls, x):
        """x as an instance of cls, or NotImplemented."""
        if isinstance(x, cls):
            return x
        if isinstance(x, cls._scalars):
            return cls({cls._unit_key: x})
        return NotImplemented

    @classmethod
    def coerce(cls, x):
        out = cls._operand(x)
        if out is NotImplemented:
            raise TypeError(f"cannot coerce {type(x).__name__} to {cls.__name__}")
        return out

    def _convolve(self, other, add_keys):
        """Product of sums of monomials whose keys combine by add_keys."""
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                self._accumulate(terms, add_keys(k1, k2), c1 * c2)
        return self._new(terms)

    # ------------------------------------------------------ arithmetic

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            self._accumulate(terms, key, coeff)
        return self._new(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def scale(self, factor):
        """Every coefficient times one ring element."""
        factor = self._coerce(factor)
        return self._new(self._clean({k: c * factor for k, c in self.terms.items()}))

    def __eq__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


def exponent_key(key, length: int) -> tuple:
    """key as a tuple of length nonnegative ints."""
    key = tuple(map(operator.index, key))
    if len(key) != length or min(key) < 0:
        raise ValueError(f"expected {length} nonnegative integers, got {key}")
    return key


class QScalar(SparseTerms):
    """Laurent polynomial in q: a finite sum c_k * q^k with GaussRat c_k.

    Immutable; zero coefficients are never stored.  Arithmetic is exact.
    Substituting a numeric theta (q = exp(i*theta)) is a separate, lossy
    operation returning a Python complex.
    """

    __slots__ = ()
    _scalars = (int, Fraction, GaussRat)
    _unit_key = 0
    _key = staticmethod(operator.index)
    _coerce = staticmethod(GaussRat.coerce)

    @staticmethod
    def from_q_power(power: int, coeff=1) -> "QScalar":
        return QScalar({power: coeff})

    @staticmethod
    def one() -> "QScalar":
        return QScalar({0: 1})

    # bound in this class's own dict, where perfbench's tracer counts them
    __add__ = __radd__ = SparseTerms.__add__

    def __mul__(self, other):
        other = self._operand(other)
        if other is not NotImplemented and len(other.terms) == 1:
            (power, c), = other.terms.items()
            if c.re == 1 and c.im == 0:  # times q^power: shift every key
                return self._new({k + power: v for k, v in self.terms.items()})
        return self._convolve(other, operator.add)

    __rmul__ = __mul__

    def substitute(self, theta: float) -> complex:
        """Evaluate at q = exp(i*theta).  Lossy: exact -> float."""
        total = 0j
        for power, coeff in self.terms.items():
            total += complex(coeff) * cmath.exp(1j * theta * power)
        return total

    def coeff_rows(self) -> list[list[int]]:
        """Canonical rows [q_power, re_num, re_den, im_num, im_den]."""
        rows = []
        for power in sorted(self.terms):
            c = self.terms[power]
            rows.append([
                power,
                c.re.numerator, c.re.denominator,
                c.im.numerator, c.im.denominator,
            ])
        return rows


#: the formal deformation unit
Q = QScalar.from_q_power(1)
Q_INV = QScalar.from_q_power(-1)
