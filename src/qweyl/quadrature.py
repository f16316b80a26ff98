"""Gauss-Hermite cross-check for oscillator matrix elements.

Independent of the ladder-matrix route: oscillator eigenfunctions are
built from their polynomial recurrence, operator terms act through the
envelope symbolically, and the resulting 1D integrals are evaluated on
a Gauss-Hermite grid wide enough to be exact for every polynomial
degree that can appear.  3D elements factorize per axis.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.hermite import hermgauss

from .gaussian import DiffOp3

GRID_SIZE = 48  # exact for integrand degree <= 95
NODES, WEIGHTS = hermgauss(GRID_SIZE)

_U = Polynomial([0.0, 1.0])


@lru_cache(maxsize=64)
def hermite_prefactor(n: int) -> Polynomial:
    """Polynomial part of the n-th oscillator eigenfunction.

    The eigenfunction is hermite_prefactor(n)(u) * exp(-u^2/2), unit
    normalized, via the stable two-term recurrence.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return Polynomial([np.pi ** -0.25])
    if n == 1:
        return _U * np.sqrt(2.0) * hermite_prefactor(0)
    return _U * np.sqrt(2.0 / n) * hermite_prefactor(n - 1) - np.sqrt(
        (n - 1) / n
    ) * hermite_prefactor(n - 2)


def envelope_derivative(prefactor: Polynomial) -> Polynomial:
    """d/du through the Gaussian envelope: Q -> Q' - u Q."""
    return prefactor.deriv() - _U * prefactor


@lru_cache(maxsize=1024)
def element_1d(n: int, power: int, deriv: int, m: int) -> float:
    """<n| u^power d^deriv |m> for single-mode eigenfunctions.

    The two envelope halves join into the full Gaussian weight, so the
    integrand against exp(-u^2) is a pure polynomial and the fixed grid
    integrates it exactly.
    """
    acted = hermite_prefactor(m)
    for _ in range(deriv):
        acted = envelope_derivative(acted)
    integrand = hermite_prefactor(n) * _U ** power * acted
    return float(np.dot(WEIGHTS, integrand(NODES)))


def element_3d(op: DiffOp3, bra, ket) -> complex:
    """<bra| op |ket> for a theta-free polynomial-coefficient operator."""
    total = 0.0 + 0.0j
    for coeff, axes in op.axis_terms():
        total += coeff * math.prod(
            element_1d(n, power, deriv, m)
            for n, (power, deriv), m in zip(bra, axes, ket)
        )
    return total
