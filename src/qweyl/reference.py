"""Frozen first-order reference tables.

Everything downstream is recomputed from scratch; the tables here are
the fixed targets those recomputations are compared against.  Where a
recomputed quantity disagrees with a table entry, the comparison report
flags the slot instead of silently patching either side (see README,
Known discrepancies).  The tables are kept verbatim, including the
magnetic-field z-entry that repeats the x-entry.
"""

from __future__ import annotations

from .gaussian import CPoly3
from .scalars import HALF, I_UNIT

X = CPoly3.variable(0)
Y = CPoly3.variable(1)
Z = CPoly3.variable(2)
THETA = CPoly3.theta()

# drift polynomials: a_j multiplies +i*theta in the derivative-generator
# actions on the ground state, b_j multiplies -i*theta in the coordinate
# ones
REFERENCE_DRIFT_A = (
    X * (X * X * HALF + Y * Y + Z * Z - 1),
    Y * (Y * Y * HALF + Z * Z - 1),
    Z * (Z * Z * HALF - 1),
)

REFERENCE_DRIFT_B = (
    X * ((X * X - 1) * HALF + Y * Y + Z * Z),
    Y * ((Y * Y - 1) * HALF + Z * Z),
    Z * ((Z * Z - 1) * HALF),
)

# ground-state action prefactors for all six generators: applying a
# generator to the Gaussian ground state yields (prefactor) * Psi
REFERENCE_GROUND_ACTIONS = {
    "d1": -X + THETA * REFERENCE_DRIFT_A[0] * I_UNIT,
    "d2": -Y + THETA * REFERENCE_DRIFT_A[1] * I_UNIT,
    "d3": -Z + THETA * REFERENCE_DRIFT_A[2] * I_UNIT,
    "X1": X - THETA * REFERENCE_DRIFT_B[0] * I_UNIT,
    "X2": Y - THETA * REFERENCE_DRIFT_B[1] * I_UNIT,
    "X3": Z - THETA * REFERENCE_DRIFT_B[2] * I_UNIT,
}

# vector potential: theta times the a-drift, componentwise
REFERENCE_A = tuple(THETA * p for p in REFERENCE_DRIFT_A)

# imaginary potential: odd under (x,y,z) -> (-x,-y,-z)
REFERENCE_V_I = -(
    THETA
    * (
        X * X * X
        + Y * Y * Y
        + Z * Z * Z
        + X * Y * Y
        + X * Z * Z
        + Y * Z * Z
        + X
        + Y
        + Z
    )
)

# magnetic-field table; the z entry repeats the x entry verbatim, while
# the curl of REFERENCE_A has z component -2*theta*x*y (the comparison
# report carries the diff)
REFERENCE_B = (
    THETA * Y * Z * (-2),
    THETA * X * Z * 2,
    THETA * Y * Z * (-2),
)

_EPSILON = {
    (0, 1, 2): 1,
    (1, 2, 0): 1,
    (2, 0, 1): 1,
    (0, 2, 1): -1,
    (2, 1, 0): -1,
    (1, 0, 2): -1,
}


def epsilon_full_sum() -> tuple:
    """Magnetic field read as B_i = sum_{j,k} eps_ijk 2 theta x_j x_k.

    The symbol is antisymmetric in (j, k) while x_j x_k is symmetric,
    so every component cancels to zero under this reading.
    """
    out = []
    for i in range(3):
        total = CPoly3()
        for (a, b, c), sign in _EPSILON.items():
            if a != i:
                continue
            total = total + THETA * CPoly3.variable(b) * CPoly3.variable(c) * (
                2 * sign
            )
        out.append(total)
    return tuple(out)


def epsilon_cyclic() -> tuple:
    """Magnetic field read as B_i = 2 theta x_j x_k over cyclic (i, j, k).

    Keeping only the even permutation for each component gives
    (2 theta y z, 2 theta z x, 2 theta x y).
    """
    out = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        out.append(THETA * CPoly3.variable(j) * CPoly3.variable(k) * 2)
    return tuple(out)
