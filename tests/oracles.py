"""Exact Gaussian oracles the tests check the first-order claims with.

No command calls these: they hold the closed-form moments of the squared
ground state exp(-r^2) and the polynomial r^2, so a test can read off an
expectation such as the ground-state energy 3/2 - (3/2)i*theta exactly.
"""

from fractions import Fraction

from qweyl.gaussian import CPoly3

R_SQUARED = (
    CPoly3.variable(0) * CPoly3.variable(0)
    + CPoly3.variable(1) * CPoly3.variable(1)
    + CPoly3.variable(2) * CPoly3.variable(2)
)


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def gaussian_expectation(poly: CPoly3) -> CPoly3:
    """Exact expectation of a polynomial under the unit-normalized weight
    exp(-r^2) (the squared ground state).  Odd monomials vanish; even ones
    contribute the closed-form moment (2k-1)!!/2^k per axis.  theta stays
    formal, so the result is a constant polynomial in theta.
    """
    total = CPoly3()
    for (a, b, c, t), coeff in poly.terms.items():
        if a % 2 or b % 2 or c % 2:
            continue
        moment = Fraction(1)
        for e in (a, b, c):
            moment *= Fraction(_double_factorial(e - 1), 2 ** (e // 2))
        total = total + CPoly3.monomial(0, 0, 0, t, coeff * moment)
    return total
