"""starcover: exact deformation-quantization descent calculus.

Star products and Poisson structures over chart algebras with rational
coefficients, Maurer-Cartan / gauge theory in quantum-type DG Lie algebras,
ordered Cech constructions over combinatorial cover nerves, multiplicative
and additive descent data with their cocycle certificates, Thom-Sullivan
integration, and order-by-order obstruction solving -- everything exact over
Q at finite truncation order.
"""

from .exactalg import AlgebraError, ChartAlgebra, LocalizedPoly, Poly, QQ, solve_linear
from .params import ParamAlgebra, ParamSeries, param_algebra_truncate
from .dgla import (
    DGLAElement,
    GaugeElement,
    InducedStructure,
    LInftyMorphism,
    MCCheckError,
    MCElement,
    MCViolation,
    ad_exp,
    bch,
    bch_many,
    gauge_act,
    gauge_structure,
    linfty_apply,
    mc_check,
    mc_residue,
    require_mc,
    twisted_bracket,
    twisted_d,
)
from .polyvec import (
    PoissonStructure,
    PolyvecCarrier,
    poisson_from_mc,
    schouten,
)
from .polydiff import (
    NotEquivalent,
    PolydiffCarrier,
    StarProduct,
    first_order_bracket,
    first_order_tables_equal,
    gerstenhaber,
    hkr,
    hochschild_d,
    quantize_affine_order2,
    solve_gauge,
    star_from_mc,
    star_gauge,
)
from .simplex import (
    SimplexForm,
    face_pullback,
    simplex_integrate,
    stokes_boundary_integral,
)
from .cechnerve import (
    CechCarrier,
    CoverNerve,
    NerveError,
    Refinement,
    RestrictionMap,
    build_nerve,
    cech_cohomology,
    constant_nerve,
    octahedron_nerve,
)
from .thomsullivan import TSHandle, ts_normalize, validate_compatibility, whitney
from .descent import (
    AddDescentDatum,
    MultDescentDatum,
    ObstructionReport,
    TwistedTransformation,
    add_gauge,
    check_add,
    check_mdd,
    equiv_solve,
    exp_add,
    int_mc,
    mdd_gauge,
    obstruction,
)

__version__ = "0.1.0"
