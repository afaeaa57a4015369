"""projeq: projectively equivalent 2D pseudo-Riemannian metric pairs.

Generate the three normal-form families, classify arbitrary pairs by the
eigenstructure of the associated (1,1)-tensor, verify quadratic first
integrals, and rectify a metric-integral pair back to normal-form data.
"""

__version__ = "0.1.0"

from .errors import (AmbiguousCase, ChartExit, CoefficientVanishes, ConfigError,
                     DomainError, ExprSyntaxError, InvalidArgument, InvariantViolation,
                     NonMonotone, NotAnIntegral, NotAxisAligned, NotCase1, NotCase3,
                     NotHolomorphic, ProjEqError, RectifyError, SignatureMismatch,
                     SingularMetric, StepFailure, TrivialIntegral, UnknownIdentifier,
                     YhatVanishes, ZeroVelocity)
from .expr import ComplexJet, Jet2, diff, parse, render
from .codegen import complex_function, eval_complex, eval_jet, jet_function
from .fields import ExprMap, IdentityMap, LinearMap, Monotone1D, QuadratureMap, ScalarField
from .geometry import (Chart, Classification, Metric2, PairClassification, christoffel_at,
                       classify_at, classify_pair, metric_at)
from .dynamics import (PhaseState, QuadraticForm, Trajectory, export_trajectory,
                       hamiltonian, hamiltonian_form, integrate_geodesic, poisson_bracket,
                       projective_residual, quadratic_value)
from .equivalence import (NullFormMetric, VerificationReport, fit_integral_combination,
                          null_form_of, projective_integral_momentum, triviality_check,
                          verify_integral)
from .normal_forms import (ComplexLiouvilleSpec, GeneratedPair, JordanBlockSpec,
                           JordanKillingFreeSpec, LiouvilleSpec, generate,
                           gen_complex_liouville, gen_jordan_block,
                           gen_jordan_killing_free, gen_liouville, holomorphic_parts,
                           remark1_identity_residual)
from .rectify import (AdmissibleChange, BKResult, Case1Result, Case2Result, Case3Result,
                      RectificationReport, apply_admissible_change, bk_normalize,
                      rectification_pipeline, solve_case1, solve_case2, solve_case3,
                      to_null_form, transform_separable)
