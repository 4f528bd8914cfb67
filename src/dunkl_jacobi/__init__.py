"""Exact first-order differential-reflection operators and their orthogonal polynomials.

The package constructs the general degree-preserving operator
``L = F(x)(I - R) + G0(x) d/dx + G1(x) d/dx R`` over exact rationals,
computes its monic polynomial eigenfunctions, classifies the parameter
space by symmetrizability, derives the matching weight functions from the
Pearson-type identities, and certifies orthogonality numerically with
singularity-adapted Gauss-Jacobi quadrature.
"""

from .errors import (
    DegenerateSpectrum,
    DunklJacobiError,
    InternalConsistencyError,
    NegativePowerResidue,
    NonIntegrable,
    NotCanonicalizable,
    NotSymmetrizableError,
    OutOfFloatRange,
    ParameterRange,
    PoleAtZero,
    UnsupportedPoint,
    UnsupportedWeight,
)
from .laurent import LaurentPoly, Polynomial, Rational, as_rational
from .dunkl import (
    DegreeConditionReport,
    DunklOperator,
    OperatorBand,
    OperatorParams,
    apply_raw,
    build,
    check_nondegenerate,
    degree_conditions,
    eigenvalue,
    kappa_coefficients,
    subleading_coefficients,
    verify_degree_conditions,
)
from .eigen import (
    EigenPolynomial,
    coefficient_table_csv,
    coefficient_table_json,
    eigen_defects,
    eigen_sequence,
    monic_eigenpolynomial,
    parse_coefficient_table_csv,
    residual,
)
from .weights import (
    BigJacobiParams,
    CanonicalForm,
    CaseTag,
    ClassificationVerdict,
    WeightFunction,
    big_operator,
    big_weight,
    canonicalize,
    classify,
    little_weight,
    pearson_defect,
    pearson_points,
    pearson_residual,
    scale_params,
    solve_pearson,
)
from .quadrature import (
    Check,
    GramMatrix,
    QuadratureRule,
    basis_gram,
    certify,
    connection_coefficients,
    gram_matrix,
    inner_product,
    moment,
    orthogonal_polynomials,
    quadrature_rule,
    recurrence_coefficients,
    symmetry_block,
    symmetry_residual,
)

__version__ = "0.1.0"
