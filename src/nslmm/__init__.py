"""Property-preserving ODE integration with transformed SSP multistep methods."""

from .denominator import (CATALOG_KINDS, DenominatorSpec, PhiKind, eval_phi,
                          make_phi_for_method, parse_phi_label, phi_bound,
                          phi_value, ssp_threshold, verify_phi_conditions)
from .errors import ConfigurationError, NslmmError, UnsupportedError
from .experiments import (BOUNDEDNESS, WEAK_MONOTONICITY, ConvergenceReport,
                          ErrorNorm, ExactReference, RK4Reference,
                          convergence_study, observed_order, phi_benchmark,
                          sharpness_bisection)
from .integrate import (ExactStartup, RecordMode, RunConfig,
                        RungeKuttaStartup, Trajectory, integrate, nslmm_step,
                        nsrk_step, reference_solution)
from .methods import (CATALOG, MULTISTEP_IDS, RUNGE_KUTTA_IDS, Method,
                      effective_ssp_coefficient, get_method, multistep_method,
                      ssp_coefficient, validate_method)
from .problems import (OdeProblem, PropertyKind, QualitativeProperty,
                       UNCONDITIONAL_BOUND, default_properties, eval_rhs,
                       exact_solution, fe_property_bound, forward_euler_step,
                       logistic_problem, make_problem, seir_problem)
from .qualprops import (PropertyReport, check_bounds, check_linear_invariant,
                        check_property, check_weak_monotonicity)

__version__ = "0.1.0"
