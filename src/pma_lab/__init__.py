"""Numerical laboratory for degenerate parabolic Monge-Ampere flows.

The flow is u_t = b(x,t) (det D^2 u)^p on convex domains, with monotone
wide-stencil operators, explicit comparison-preserving time stepping,
section/ellipsoid geometry, exact barrier and self-similar solutions, and
probes for the regularity and flat-side phenomena the flow exhibits.
"""

from .grid import (BAND, EXTERIOR, INTERIOR, CoefficientField, Domain,
                   GridFunction, GridStack, build_domain, gradient_field,
                   load_csv, sample, save_csv)
from .monge_ampere import (OperatorConfig, OperatorField, ma_field,
                           orthogonal_frames, reduced_ma_field)
from .exact import (ConjugateTable, SelfSimilarProfile, build_profile,
                    coefficient_closed_form, cone_data, crease_data,
                    flat_disk_data, profile_residual, quadratic_solution,
                    solve_conjugate, subsolution_barrier,
                    supersolution_barrier)
from .evolution import (ComparisonReport, EvolutionResult, EvolutionState,
                        ScalingMap, comparison_check, evolve, evolve_pair,
                        rescale, stable_dt)
from .geometry import (BalancednessCertificate, Ellipsoid, FlatSet,
                       LegendreTransform, Section, balancedness,
                       centered_section, flat_set, john_ellipsoid, legendre,
                       section_at, unit_ball_volume)
from .analysis import (AngleCertificate, C1AlphaReport, DichotomyReport,
                       ExponentFit, InterfaceReport, SeparationReport,
                       angle_opening, beta_time, c1alpha_from_line,
                       dual_flow_residual, fit_exponent, flat_dichotomy_probe,
                       gamma_p, holder_time_fit, interface_exponent,
                       separation_probe)
from .config import (ConfigError, expression_field, format_config, make_domain,
                     make_initial, make_operator, make_state, parse_config,
                     read_config, run_settings)
from .experiments import (REGISTRY, ExperimentError, ExperimentReport,
                          ExperimentSpec, Outcome, claim_quote, claims_text,
                          list_experiments, run_experiment)

__version__ = "0.1.0"
