"""Bound states of the exponential-cosine-screened Coulomb potential.

Closed-form perturbative energies and wavefunctions, density integrals
over the exact Coulomb moments that cross-check every closed form, an
independent Lagrange-mesh eigensolver, and a CLI that reproduces the
bundled reference tables.
"""

from .core import (
    ATOMIC,
    HBAR2M,
    EnergyBreakdown,
    QuantumState,
    ScreeningSpec,
    SecondOrderVariant,
    UnitSystem,
    ValidationError,
    make_unit_system,
    state_from_label,
)
from .coulomb import (
    coulomb_beta,
    coulomb_energy,
    coulomb_norm,
    coulomb_wavefunction,
    laguerre,
    radial_moment,
)
from .perturbation import (
    GroundCoefficients,
    first_order_shift,
    ground_coefficients,
    ground_wavefunction,
    second_order_coefficients,
    second_order_shift,
    second_order_terms,
    superpotential_first,
    superpotential_second_ground,
    superpotential_w0,
    total_energy,
    wavefunction_polynomial,
)
from .potential import (
    effective_potential,
    evaluate_potential,
    series_coefficient,
)
from .quadrature import (
    QuadratureSpec,
    ToleranceNotMetError,
    first_order_energy_numeric,
    integrate_density,
    second_order_energy_numeric,
)
from .radial import (
    NoBoundStateError,
    RadialFunction,
    SolverConfig,
    default_solver_config,
    solve_bound_state,
)
from .tables import ComparisonRow, ScanResult, TableResult, TABLES, reproduce_table, scan_delta

__version__ = "0.1.0"
