"""toruszeta: spectral zeta functions of discrete-torus Laplacians.

Discrete 5-point/9-point star Laplacians on 2-tori and their spectral zeta
functions, the Epstein zeta side via Glasser's factorization, Hadamard
regularized quadrature, the asymptotic expansion coefficients linking the
two, and the critical-line machinery (Omega ratios, H_n ratios, zero
scans).
"""

from .conjecture import (ScanRecord, eta_factor, hn_ratio_study,
                         monotonicity_scan, omega_ratio, omega_ratio_routes,
                         q_factor, rho_factor)
from .epstein import (OmegaRoute, ZeroRecord, ZeroSource, complete_xi,
                      epstein_direct_sum, epstein_zeta_2d,
                      find_critical_zeros, omega, v_factor, v_factor_inv)
from .errors import (ConvergenceError, DegenerateError, DescriptorError,
                     DomainError, IllConditionedError, NonFiniteError,
                     PoleError, RangeError, ShapeError, SignalLostError,
                     StepTooCoarseWarning, TorusZetaError,
                     ZeroDenominatorError, ZeroShortfallWarning)
from .expansion import (ExpansionResult, TaylorCoefficient,
                        angular_lattice_sum, coeff_b0,
                        coeff_b1, coeff_b1_tilde, em_verify,
                        expansion_summary, h_function,
                        leading_coeff, leading_coeff_error, residual_order,
                        resolvent_leading_term, series_truncation_check,
                        symbol_value, taylor_coefficients)
from .lattice import (StencilVariant, TorusGrid, apply_stencil,
                      axis_eigenvalues, eigenvalue, eigenvalue_grid,
                      fold_square, folded_spectrum, operator_matrix,
                      resolvent_trace, resolvent_trace_1d,
                      spectral_zeta, spectral_zeta_1d, stencil_symbol)
from .quadrature import (AsymptoticDescriptor, AsymptoticTerm, IntegrandSpec,
                         Location, QuadResult, change_of_variables_check,
                         quad_finite, quad_periodic_2d, regularized_integral,
                         regularized_limit)
from .special import (bernoulli_fraction, bernoulli_number,
                      bernoulli_polynomial, complex_gamma, complex_log_gamma,
                      digamma, dirichlet_beta, riemann_zeta)

__version__ = "0.1.0"
