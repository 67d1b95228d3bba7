"""Exact-arithmetic stringy invariants of Calabi-Yau hypersurfaces built
from reflexive polytope data: lattice geometry, Eulerian-poset polynomial
invariants, S/tilde-S polynomials, two stringy E-function formulas, graded
dimensions of deformed semigroup-ring quotients, and the paired-monomial
Koszul-type complex."""

from .lattice import (
    Face,
    FaceLattice,
    Fan,
    FanSubdivision,
    GradedCone,
    LatticePolytope,
    RationalPolytope,
    ReflexivePair,
    cone_from_generators,
    deg_functional,
    dual_polytope,
    face_lattice,
    fan_from_rays,
    gorenstein_cone_over,
    is_reflexive,
    lattice_points_at_degree,
    lattice_polytope,
    reflexive_pair,
    regular_subdivision,
    stellar_subdivision,
    trivial_subdivision,
)
from .polynomials import BivariateLaurentPolynomial, UnivariatePolynomial
from .posets import (
    EulerianPoset,
    b_polynomial,
    b_via_g,
    boolean_lattice,
    convolution_inverse_check,
    g_polynomial,
    h_polynomial,
)
from .semigroup import (
    DegreeOneElement,
    GradedQuotientReport,
    degree_one_element,
    graded_quotient_dims,
    is_sigma_regular,
    logarithmic_derivatives,
    random_degree_one,
)
from .stringy import (
    BoxPointTable,
    HodgeTable,
    box_points,
    e_int_orbit_closure,
    e_st_hypersurface,
    e_st_oracle,
    e_st_toric,
    mirror_transform,
    s_polynomial,
    string_cohomology_table,
    stringy_hodge_table,
    tilde_s_polynomial,
    tilde_s_simplicial,
)
from .koszul import (
    KoszulComplex,
    PairedMonomialSpace,
    build_complex,
    cohomology_dims,
    compare_with_decomposition,
)

__version__ = "0.1.0"
