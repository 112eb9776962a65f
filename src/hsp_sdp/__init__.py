"""Exact hidden-subgroup recovery on semidirect products Z_{p^r} x| Z_{p^2}.

The package simulates every quantum subroutine of the recovery algorithms
exactly (rational arithmetic, no floating-point state vectors on the hot
path) and validates all results against classical brute force at desk scale.

Modules
-------
numtheory   modular arithmetic helpers (exact, guarded)
group       group parameters and element arithmetic
subgroup    descriptor catalog, normal forms, brute-force lattice
oracle      hiding-function oracles with query accounting
qsim        closed-form coset sampling, Fourier sampling, abelian HSP
solver      the full recovery state machine with verified output
composite   reduction for composite-order x-coordinate groups
cli         command line front end (enumerate / solve / sweep / verify-catalog)
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
