from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qweyl.gaussian import CPoly3, DiffOp3
from qweyl.scalars import GaussRat

from oracles import R_SQUARED, gaussian_expectation

X = CPoly3.variable(0)
Y = CPoly3.variable(1)
Z = CPoly3.variable(2)
TH = CPoly3.theta()


def test_cpoly_arithmetic():
    assert (X + Y) * (X + Y) == X * X + 2 * X * Y + Y * Y
    assert (X - X).is_zero()
    assert X * CPoly3() == CPoly3()
    assert R_SQUARED == X * X + Y * Y + Z * Z
    assert 2 * X == X + X
    assert 1 + (-TH) == CPoly3.one() - TH


def test_cpoly_rejects_negative_exponents():
    with pytest.raises(ValueError):
        CPoly3({(-1, 0, 0, 0): 1})


def test_cpoly_is_immutable():
    with pytest.raises(AttributeError):
        X.terms = {}


def test_cpoly_derivative():
    p = X * X * Y + 3 * Z
    assert p.derivative(0) == 2 * X * Y
    assert p.derivative(1) == X * X
    assert p.derivative(2) == CPoly3.coerce(3)
    assert CPoly3.one().derivative(0).is_zero()


def test_cpoly_theta_bookkeeping():
    p = X + TH * Y + TH * TH * Z
    assert p.truncate_theta() == X + TH * Y
    assert p.theta_slice(0) == X
    assert p.theta_slice(1) == Y
    assert p.theta_slice(2) == Z


def test_cpoly_real_imag_split():
    p = CPoly3({(1, 0, 0, 0): GaussRat(2, 3), (0, 1, 0, 0): GaussRat(0, 1)})
    re, im = p.real_imag_split()
    assert re == 2 * X
    assert im == 3 * X + Y


def test_cpoly_to_json_canonical():
    p = TH * X + CPoly3({(1, 0, 0, 0): Fraction(-1, 2)})
    assert p.to_json() == {"(1,0,0)": [[-0.5, 0.0, 0], [1.0, 0.0, 1]]}


def test_gaussian_derivative_of_ground_state():
    # the envelope alone differentiates to -x_j times itself
    psi = CPoly3.one()
    assert DiffOp3.partial(0).apply(psi) == -X
    assert DiffOp3.partial(1).apply(psi) == -Y
    assert DiffOp3.partial(2).apply(psi) == -Z


def test_gaussian_second_derivative():
    dx = DiffOp3.partial(0)
    assert dx.apply(dx.apply(CPoly3.one())) == X * X - 1


def test_scaling_operator_on_ground_state():
    psi = CPoly3.one()
    m1 = DiffOp3.scaling(0)
    assert m1.apply(psi) == -X * X
    m23 = DiffOp3.scaling(1) + DiffOp3.scaling(2)
    assert m23.apply(psi) == -(Y * Y) - Z * Z


def test_compose_canonical_commutator():
    # d/dx after multiplication by x picks up the Leibniz unit
    dx = DiffOp3.partial(0)
    mx = DiffOp3.from_poly(X)
    assert dx.compose(mx) == DiffOp3.identity() + mx.compose(dx)
    assert dx.compose(mx) - mx.compose(dx) == DiffOp3.identity()


def test_compose_higher_order_leibniz():
    dx2 = DiffOp3.partial(0).compose(DiffOp3.partial(0))
    mx = DiffOp3.from_poly(X)
    want = (
        DiffOp3.partial(0).scale(2)
        + mx.compose(dx2)
    )
    assert dx2.compose(mx) == want


def test_compose_mixed_axes_commute():
    dx = DiffOp3.partial(0)
    my = DiffOp3.from_poly(Y)
    assert dx.compose(my) == my.compose(dx)


def test_compose_matches_apply():
    # (A B) psi == A (B psi) on a nontrivial prefactor
    a = DiffOp3.partial(0).compose(DiffOp3.partial(1)) + DiffOp3.from_poly(X * Z)
    b = DiffOp3.scaling(2) + DiffOp3.from_poly(Y)
    psi = X + Y * Y
    assert a.compose(b).apply(psi) == a.apply(b.apply(psi))


def test_truncation_drops_second_order():
    op = DiffOp3.from_poly(TH * X)
    assert op.compose(op).is_zero()


def test_operator_theta_slice():
    op = DiffOp3.partial(0) + DiffOp3.from_poly(TH * Y).compose(DiffOp3.partial(2))
    assert op.theta_slice(0) == DiffOp3.partial(0)
    assert op.theta_slice(1) == DiffOp3({(0, 0, 1): Y})


def test_gaussian_moments():
    assert gaussian_expectation(CPoly3.one()) == CPoly3.one()
    assert gaussian_expectation(X * X) == CPoly3.coerce(Fraction(1, 2))
    assert gaussian_expectation(X * X * X * X) == CPoly3.coerce(Fraction(3, 4))
    assert gaussian_expectation(X * X * Y * Y) == CPoly3.coerce(Fraction(1, 4))
    assert gaussian_expectation(R_SQUARED) == CPoly3.coerce(Fraction(3, 2))
    assert gaussian_expectation(R_SQUARED * R_SQUARED) == CPoly3.coerce(
        Fraction(15, 4)
    )


def test_gaussian_moments_odd_vanish():
    assert gaussian_expectation(X).is_zero()
    assert gaussian_expectation(X * Y * Z).is_zero()
    assert gaussian_expectation(X * X * X * Y).is_zero()


def test_gaussian_expectation_keeps_theta_formal():
    p = TH * X * X + Z * Z
    want = CPoly3({(0, 0, 0, 1): Fraction(1, 2)}) + CPoly3.coerce(Fraction(1, 2))
    assert gaussian_expectation(p) == want


small_rat = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
keys = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)
)
polys = st.dictionaries(keys, small_rat, max_size=5).map(CPoly3)


@given(polys, polys)
def test_cpoly_derivative_is_leibniz(f, g):
    for axis in range(3):
        lhs = (f * g).derivative(axis)
        rhs = f.derivative(axis) * g + f * g.derivative(axis)
        assert lhs == rhs


@given(polys, polys)
def test_gaussian_expectation_linear(f, g):
    lhs = gaussian_expectation(f + g)
    assert lhs == gaussian_expectation(f) + gaussian_expectation(g)
