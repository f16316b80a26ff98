"""Symbolic and numeric tools for a q-deformed Weyl algebra on the 3D oscillator.

The package is organized in layers:

- scalars:     exact Gaussian rationals, the shared immutable sparse-term base,
               and Laurent polynomials in the formal unit q
- algebra:     noncommutative polynomials in X1..X3, d1..d3 with canonical
               normal ordering and relation checking
- realization: exact numeric action of the deformed coordinate operators on
               the monomial basis, plus first-order expansions
- gaussian:    calculus on polynomial-times-Gaussian wavefunctions
- effective:   first-order effective Hamiltonian assembly and decomposition
- reference:   the closed-form target polynomials used for comparison
- fock:        truncated Fock-basis matrices of the effective Hamiltonian
- quadrature:  independent Gauss-Hermite matrix-element oracle
- dynamics:    non-Hermitian time evolution and norm-flow diagnostics
- cli:         command-line front end
"""

__version__ = "0.1.0"
