import cmath
import operator
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qweyl.algebra import NCPoly, nc_mul
from qweyl.gaussian import CPoly3, DiffOp3
from qweyl.realization import PRUNE_TOL, MonomialVec, apply_word
from qweyl.scalars import HALF, GaussRat, QScalar, Q, Q_INV, I_UNIT, SparseTerms


def test_gaussrat_arithmetic():
    a = GaussRat(1, 2)
    b = GaussRat(3, -1)
    assert a + b == GaussRat(4, 1)
    assert a * b == GaussRat(5, 5)
    assert -a == GaussRat(-1, -2)
    assert a + (-a) == GaussRat(0)
    assert I_UNIT * I_UNIT == GaussRat(-1)


def test_gaussrat_exactness():
    # 1/3 stays 1/3, no binary rounding
    third = GaussRat(Fraction(1, 3))
    assert third + third + third == GaussRat(1)


def test_gaussrat_is_immutable():
    a = GaussRat(1)
    with pytest.raises(AttributeError):
        a.re = Fraction(2)


def test_qscalar_basic_identities():
    assert (Q - 1) * (Q + 1) == QScalar.from_q_power(2) - 1
    assert Q * Q_INV == QScalar.one()
    assert (Q - Q).is_zero()
    assert QScalar.from_q_power(3) - Q == QScalar({3: 1, 1: -1})


def test_qscalar_zero_terms_pruned():
    s = QScalar({2: GaussRat(0), 1: GaussRat(1)})
    assert list(s.terms) == [1]
    t = Q + QScalar.from_q_power(1, -1)
    assert t.is_zero() and t.terms == {}


def test_qscalar_substitute_matches_cmath():
    s = QScalar.from_q_power(2) - 1  # q^2 - 1
    for theta in (0.0, 0.01, 0.5, -1.3):
        want = cmath.exp(2j * theta) - 1
        assert abs(s.substitute(theta) - want) < 1e-15


def test_qscalar_at_q_one():
    # q = exp(i*0) = 1 is exact in floating point
    s = QScalar.from_q_power(3) - Q  # q^3 - q
    assert s.substitute(0.0) == 0
    t = QScalar.from_q_power(2, GaussRat(1, 1)) + 3
    assert t.substitute(0.0) == 4 + 1j


def test_qscalar_coeff_rows_canonical():
    s = QScalar({-1: GaussRat(Fraction(1, 2)), 2: GaussRat(0, Fraction(-3, 4))})
    assert s.coeff_rows() == [[-1, 1, 2, 0, 1], [2, 0, 1, -3, 4]]


small_rat = st.builds(
    Fraction, st.integers(-20, 20), st.integers(1, 8)
)
gauss = st.builds(GaussRat, small_rat, small_rat)
qscalars = st.dictionaries(st.integers(-4, 4), gauss, max_size=4).map(QScalar)


@given(qscalars, qscalars, qscalars)
def test_qscalar_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a
    assert a * b == b * a


@given(qscalars, qscalars)
def test_qscalar_substitution_is_homomorphism(a, b):
    theta = 0.137
    prod = (a * b).substitute(theta)
    assert abs(prod - a.substitute(theta) * b.substitute(theta)) < 1e-10


# ------------------------------------------ int parts, Fraction reference
#
# A GaussRat part is an int when integral and a Fraction otherwise.  The
# arithmetic must agree with the same formulas on plain Fractions, and
# the part types must follow the values.

parts = st.one_of(st.integers(-30, 30), small_rat)


def assert_parts(g, re, im):
    for part, want in ((g.re, re), (g.im, im)):
        assert part == want
        if want.denominator == 1:
            assert type(part) is int
        else:
            assert type(part) is Fraction


@given(parts, parts, parts, parts)
def test_gaussrat_matches_fraction_reference(a, b, c, d):
    x, y = GaussRat(a, b), GaussRat(c, d)
    a, b, c, d = map(Fraction, (a, b, c, d))
    assert_parts(x, a, b)
    assert_parts(x + y, a + c, b + d)
    assert_parts(x + (-y), a - c, b - d)
    assert_parts(x * y, a * c - b * d, a * d + b * c)


def test_gaussrat_division_never_floats():
    # a part halves by arithmetic with HALF, the one fractional operand
    # the pipeline uses, and turns back to int when it is integral again
    half = GaussRat(1) * HALF
    assert half == GaussRat(Fraction(1, 2))
    assert type(half.re) is Fraction and type(half.im) is int
    whole = GaussRat(4, 2) * HALF
    assert whole == GaussRat(2, 1)
    assert type(whole.re) is int and type(whole.im) is int
    assert type(GaussRat(True).re) is int
    with pytest.raises(TypeError):
        GaussRat(0.5)


@contextmanager
def counted_convolutions():
    calls = []

    def spy(self, other, add_keys):
        calls.append(other)
        return SparseTerms._convolve(self, other, add_keys)

    QScalar._convolve = spy
    try:
        yield calls
    finally:
        del QScalar._convolve


@given(qscalars, st.integers(-3, 3), gauss.filter(lambda c: c != 1))
def test_unit_monomial_product_is_a_key_shift(x, k, c):
    # q^k relabels the keys; c*q^k with c != 1 and q^2 - 1 still convolve
    for other, convolutions in ((QScalar.from_q_power(k), 0),
                                (QScalar.from_q_power(k, c), 1),
                                (QScalar.from_q_power(2) - 1, 1)):
        want = SparseTerms._convolve(x, other, operator.add)
        with counted_convolutions() as calls:
            got = x * other
        assert len(calls) == convolutions
        assert list(got.terms.items()) == list(want.terms.items())


# ------------------------------------------- the shared sparse-term base
#
# QScalar, NCPoly, CPoly3, DiffOp3 and MonomialVec all sit on
# SparseTerms.  Whatever their arithmetic builds must be exactly what the
# validating constructor makes of the same dict: no stored zero (under
# the class's own zero test) and the same keys in the same order.  The
# product is each class's own: convolution for QScalar and CPoly3,
# nc_mul for NCPoly, compose for DiffOp3, and the exact generator action
# for MonomialVec.

# few distinct keys and unit-sized values, so sums cancel often
unit_gauss = st.builds(GaussRat, st.integers(-1, 1), st.integers(-1, 1))
unit_q = st.dictionaries(st.integers(-1, 1), unit_gauss, max_size=3).map(QScalar)
normal_words = st.lists(st.integers(0, 5), max_size=3).map(lambda w: tuple(sorted(w)))
unit_cpoly = st.dictionaries(
    st.tuples(*[st.integers(0, 1)] * 3, st.integers(0, 2)), unit_gauss, max_size=4
).map(CPoly3)
unit_complex = st.sampled_from([0.0, 1.0, -1.0, 1j, -1j, 0.5 + 0.5j, 4e-16, -4e-16j])


SPECS = {
    "QScalar": dict(
        inst=unit_q,
        factor=unit_gauss,
        product=lambda a, b, g: a * b,
        zero=lambda r, c: c.is_zero(),
        rebuild=lambda r: QScalar(dict(r.terms)),
    ),
    "NCPoly": dict(
        inst=st.dictionaries(normal_words, unit_q, max_size=3).map(NCPoly),
        factor=unit_q,
        product=lambda a, b, g: nc_mul(a, b),
        zero=lambda r, c: c.is_zero(),
        rebuild=lambda r: NCPoly(dict(r.terms)),
    ),
    "CPoly3": dict(
        inst=unit_cpoly,
        factor=unit_gauss,
        product=lambda a, b, g: a * b,
        zero=lambda r, c: c.is_zero(),
        rebuild=lambda r: CPoly3(dict(r.terms)),
    ),
    "DiffOp3": dict(
        inst=st.dictionaries(
            st.tuples(*[st.integers(0, 1)] * 3), unit_cpoly, max_size=3
        ).map(DiffOp3),
        factor=unit_cpoly,
        product=lambda a, b, g: a.compose(b),
        zero=lambda r, c: c.is_zero(),
        rebuild=lambda r: DiffOp3(dict(r.terms)),
    ),
    "MonomialVec": dict(
        inst=st.dictionaries(
            st.tuples(*[st.integers(0, 1)] * 3), unit_complex, max_size=4
        ).map(MonomialVec),
        factor=unit_complex,
        product=lambda a, b, g: apply_word((g,), a, 0.3),
        zero=lambda r, c: not abs(c) > PRUNE_TOL,
        rebuild=lambda r: MonomialVec(dict(r.terms)),
    ),
}


@pytest.mark.parametrize("name", sorted(SPECS))
@given(data=st.data())
def test_sparse_terms_results_are_clean(name, data):
    spec = SPECS[name]
    a = data.draw(spec["inst"], label="a")
    b = data.draw(spec["inst"], label="b")
    factor = data.draw(spec["factor"], label="factor")
    g = data.draw(st.integers(0, 5), label="generator")
    results = [a + b, a - b, -a, a - a, a.scale(factor), spec["product"](a, b, g)]
    for r in [a, b] + results:
        assert type(r) is type(a)
        assert not any(spec["zero"](r, c) for c in r.terms.values())
        rebuilt = spec["rebuild"](r)
        assert rebuilt == r
        assert list(rebuilt.terms) == list(r.terms)
        assert repr(r) == f"{type(r).__name__}({r.terms!r})"
        with pytest.raises(AttributeError):
            r.terms = {}
        with pytest.raises(AttributeError):
            r.anything = 0
    assert (a - a).is_zero()
