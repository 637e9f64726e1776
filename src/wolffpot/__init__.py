"""Dyadic and continuous Wolff-type potentials, energies, and maximal functions.

The package computes, for pairs of finite atomic measures (sigma, mu) and
nonincreasing radial or per-cube kernels, the nonlinear potentials and
functionals whose two-sided comparisons characterize upper-triangle trace
inequalities, together with a verification harness that exercises those
comparisons on finite dyadic windows.
"""

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    GridAlignmentError,
    InvalidKernelError,
    LevelRangeError,
    OutOfWindowError,
    ScenarioError,
    WolffpotError,
)
from .lattice import LatticeWindow, LevelIndex
from .measures import (
    AtomicMeasure,
    bernoulli_cascade,
    cube_mass_table,
    doubling_constant,
    lebesgue_grid,
    reverse_doubling_check,
)
from .kernels import (
    BarField,
    DyadicKernelMap,
    RadialKernel,
    bar_k,
    constant_kernel,
    dlbo_constant,
    lbo_constant,
    log_kernel,
    riesz_kernel,
)
from .potentials import (
    DyadicScene,
    Exponents,
    a_functionals,
    energy_continuous,
    energy_dyadic,
    hl_maximal_dyadic,
    lambda_substitution,
    m_k_maximal,
    t_continuous_trunc,
    wolff_continuous,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
