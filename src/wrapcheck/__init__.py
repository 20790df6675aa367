"""wrapcheck: executable obstructions to elliptic and quasiregularly
elliptic closed manifolds, plus numerical verification of the explicit
open-manifold wrapping maps.

The symbolic side (exterior algebra, graded presentations, quadratic
form invariants, nilpotent Lie algebra cohomology) is exact rational
arithmetic on immutable values; the numerical side (embedding search,
surface type, map verification) is seeded, deterministic floating
point.  Everything is pure and safe for concurrent use.
"""

from .exterior import Blade, Multivector, graded_dimension, top_pairing, wedge
from .algebra import (
    AlgebraPresentation,
    ConcreteSubalgebra,
    GradedPolynomial,
    basis_and_dims,
    check_poincare_duality,
    cup_square_form,
    euler_characteristic,
    evaluate_polynomial,
    quotient_by_degree1,
)
from .embed import (
    RingMorphism,
    certify_injective,
    euler_obstruction,
    search_embedding,
    torus_subalgebra_check,
    verify_morphism,
)
from .quadform import (
    QuadraticForm,
    diagonalize,
    discriminant,
    hasse_invariant,
    hilbert_symbol,
    rationally_equivalent,
    signature,
    wedge_pairing_form,
)
from .nilcoh import (
    NilLieAlgebra,
    bass_growth_degree,
    ce_differential,
    jacobi_check,
    lie_cohomology_dims,
    lower_central_series,
    nomizu_kernel,
    pi1_verdict,
)
from .geom2d import (
    LatticeChain,
    LatticeLoop,
    RadialProfile,
    ahlfors_classify,
    curvature_from_profile,
    fill_cycle,
    milnor_classify,
    reduce_loop,
    revolution_volume,
    turning_number,
)
from .wrapmaps import (
    EvaluableMap,
    asymptotic_degree,
    estimate_lipschitz,
    eval_f0,
    eval_fn,
    eval_sphere_wrap,
    eval_torus_collapse,
    jacobian_floor,
    quasiregularity_ratio,
)
from .descriptor import ManifoldDescriptor, ParseError, parse_descriptor
from .battery import BatteryOptions, BatteryReport, fourmanifold_battery, run_battery

__version__ = "0.1.0"

__all__ = [
    "Blade",
    "Multivector",
    "graded_dimension",
    "top_pairing",
    "wedge",
    "AlgebraPresentation",
    "ConcreteSubalgebra",
    "GradedPolynomial",
    "basis_and_dims",
    "check_poincare_duality",
    "cup_square_form",
    "euler_characteristic",
    "evaluate_polynomial",
    "quotient_by_degree1",
    "RingMorphism",
    "certify_injective",
    "euler_obstruction",
    "search_embedding",
    "torus_subalgebra_check",
    "verify_morphism",
    "QuadraticForm",
    "diagonalize",
    "discriminant",
    "hasse_invariant",
    "hilbert_symbol",
    "rationally_equivalent",
    "signature",
    "wedge_pairing_form",
    "NilLieAlgebra",
    "bass_growth_degree",
    "ce_differential",
    "jacobi_check",
    "lie_cohomology_dims",
    "lower_central_series",
    "nomizu_kernel",
    "pi1_verdict",
    "LatticeChain",
    "LatticeLoop",
    "RadialProfile",
    "ahlfors_classify",
    "curvature_from_profile",
    "fill_cycle",
    "milnor_classify",
    "reduce_loop",
    "revolution_volume",
    "turning_number",
    "EvaluableMap",
    "asymptotic_degree",
    "estimate_lipschitz",
    "eval_f0",
    "eval_fn",
    "eval_sphere_wrap",
    "eval_torus_collapse",
    "jacobian_floor",
    "quasiregularity_ratio",
    "ManifoldDescriptor",
    "ParseError",
    "parse_descriptor",
    "BatteryOptions",
    "BatteryReport",
    "fourmanifold_battery",
    "run_battery",
    "__version__",
]
