"""eelab: a numerical laboratory for entropy solutions of the 2D eikonal equation.

Builds divergence-free unit test fields on grids, mollifies them, evaluates
entropy productions and their closed-form decompositions, constructs the
factorized kinetic measure, estimates Besov seminorms, and verifies the
coercive interaction functional - all with two independent computation paths
wherever an identity is claimed.
"""

__version__ = "0.1.0"

from .circle import CircleFunction
from .entropy import (
    DiskHarmonic,
    EntropyMap,
    ExtendedEntropy,
    RadialCutoff,
    a_coefficients,
    ent_residual,
    generated_entropy,
    generated_entropy_closed_form,
    generator_harmonic_potential,
    harmonic_entropy,
    jin_kohn,
    jin_kohn_circle,
    multiplier,
    multiplier_differential,
    potential_linear_term,
    q_coefficients,
    radial_values,
)
from .grids import (
    AngleField,
    ConstantSpec,
    Grid2,
    JumpSpec,
    Mollifier,
    ScalarField,
    VecField,
    VortexSpec,
    build_field,
    centered_grid,
    divergence,
    lp_norm,
    mollify,
    read_field,
    write_field,
)
from .kinetic import (
    JumpLineMeasure,
    KineticMeasure,
    SpaceTimeTestFunction,
    kinetic_residual,
    pair_measure,
    rotated_production,
    theta_of_vec,
)
from .production import (
    Level,
    cubic_average_besov_bound,
    cubic_difference_average,
    div_entropy,
    div_sigma_closed,
    factorized_measure,
    jump_production_mass,
    mollified_level,
    pointwise_bound_check,
    production_ladder,
)
from .regularity import (
    BesovReport,
    InteractionSample,
    InteractionWeight,
    besov_seminorm,
    coercivity_profile,
    coercivity_scan,
    interaction_identity_check,
    symmetric_interaction_closed_form,
    symmetric_pair_interaction,
)
from .factorization import (
    FactorizationReport,
    factor_coefficient,
    generated_productions,
    pairing_consistency_gap,
    vanishing_production_check,
    verify_factorization,
)
