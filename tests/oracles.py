"""Exact oracles the tests check the production paths with.

No command calls these; each is an independent route to a value a
command computes another way.

The one-swap rewriting stepper is the oracle for algebra.normalize.  By
Bergman's diamond lemma every word has one normal form, so normalize
and normalize_by_rewriting must agree term for term.

normalize_by_rewriting, the stepper, rewrites one adjacent out-of-order
pair at a time, oriented left-to-right:

    X_b X_a -> q^{-1} X_a X_b                      (b > a)
    d_b d_a -> q       d_a d_b                     (b > a)
    d_a X_b -> q       X_b d_a                     (a != b)
    d_a X_a -> 1 + q^2 X_a d_a + (q^2-1) sum_{k>a} X_k d_k

Termination: order words by (m, s) where m counts derivative-before-
coordinate letter pairs and s counts same-type index inversions.  The two
swap rules leave m fixed and drop s by one; the mixed rules drop m by one
(letters outside the rewritten pair contribute identically before and
after, including for the diagonal rule, whose output words either drop
both letters or replace the inverted pair d_a X_a by a non-inverted pair
X_k d_k).  Each rewrite therefore strictly decreases (m, s)
lexicographically, and normalization reaches a fixpoint.  Confluence is
exercised by test suites that normalize random words under different
admissible strategies, and normalize is checked against the stepper.

The Gaussian moments hold the closed-form expectations of polynomials
under the squared ground state exp(-r^2), with R_SQUARED the polynomial
r^2, so a test can read off an expectation such as the ground-state
energy 3/2 - (3/2)i*theta exactly.

h_eff_by_sparse_sum is the sparse sum H0 + theta*H1 that fock.build_h_eff
assembles in one pass over H1's entries, with the same bytes.
"""

import random
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from qweyl.algebra import _ONE, GEN_NAMES, NCPoly, _checked_word
from qweyl.fock import build_h1_matrix, h0_diagonal
from qweyl.gaussian import CPoly3
from qweyl.scalars import Q, Q_INV, QScalar

_Q_SQ = QScalar.from_q_power(2)
_Q_SQ_MINUS_ONE = _Q_SQ - _ONE


class NoRewriteApplicable(Exception):
    """Raised when a word is already in canonical form."""


def rewrite_at(word, pos):
    """Apply the defining relation at adjacent position pos.

    Returns a list of (word, QScalar factor) pairs whose sum, times the
    original coefficient, equals the original word.
    """
    a, b = word[pos], word[pos + 1]
    if a <= b:
        raise NoRewriteApplicable(f"pair {GEN_NAMES[a]} {GEN_NAMES[b]} is in order")
    head, tail = word[:pos], word[pos + 2:]
    swapped = head + (b, a) + tail
    if a < 3:
        # X_b X_a with b > a
        return [(swapped, Q_INV)]
    if b >= 3:
        # d_b d_a with b > a
        return [(swapped, Q)]
    i, j = a - 3, b  # derivative index, coordinate index (0-based)
    if i != j:
        return [(swapped, Q)]
    # diagonal pair d_i X_i
    out = [(head + tail, _ONE), (swapped, _Q_SQ)]
    for k in range(i + 1, 3):
        out.append((head + (k, k + 3) + tail, _Q_SQ_MINUS_ONE))
    return out


def _rewrite_positions(word):
    return [p for p in range(len(word) - 1) if word[p] > word[p + 1]]


def normalize_by_rewriting(terms, strategy, seed=None) -> "NCPoly":
    """Canonical form by one rewrite_at step at a time, at the out-of-order
    position strategy picks: "leftmost", "rightmost", or "random" with the
    given seed.  Every strategy must agree with normalize, which the tests
    check.
    """
    if strategy not in ("leftmost", "rightmost", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random.Random(seed) if strategy == "random" else None
    ring = NCPoly()  # its accumulate and trusted constructor
    done: dict = {}
    pending: dict = {}
    for word, coeff in getattr(terms, "terms", terms).items():
        ring._accumulate(pending, _checked_word(word), QScalar.coerce(coeff))
    while pending:
        word, coeff = pending.popitem()
        positions = _rewrite_positions(word)
        if not positions:
            ring._accumulate(done, word, coeff)
            continue
        if strategy == "leftmost":
            pos = positions[0]
        elif strategy == "rightmost":
            pos = positions[-1]
        else:
            pos = rng.choice(positions)
        for new_word, factor in rewrite_at(word, pos):
            ring._accumulate(pending, new_word, coeff * factor)
    return ring._new(done)


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
        total = total + CPoly3({(0, 0, 0, t): coeff * moment})
    return total


def h_eff_by_sparse_sum(n_max, theta, mode, sector=None):
    """H0 + theta*H1 as the sparse sum of a diagonal H0 and the scaled H1:
    the expression whose bytes fock.build_h_eff reproduces in one pass."""
    h0 = sp.diags_array(h0_diagonal(n_max, sector).astype(complex), format="csr")
    with np.errstate(over="ignore", invalid="ignore"):
        return h0 + theta * build_h1_matrix(n_max, mode, sector)
