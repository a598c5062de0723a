"""toruszeta: spectral zeta functions of discrete-torus Laplacians.

Discrete 5-point/9-point star Laplacians on 2-tori and their spectral zeta
functions, the Epstein zeta side via Glasser's factorization, Hadamard
regularized quadrature, the asymptotic expansion coefficients linking the
two, and the critical-line machinery (Omega ratios, H_n ratios, zero
scans).

The imports below are the ledger of public names: each group's comment
names its users.  A name that only the library calls is not re-exported.
"""

# called by the CLI, with the types they take and return
from .conjecture import hn_ratio_study, omega_ratio
from .epstein import (OmegaRoute, complete_xi, epstein_direct_sum,
                      epstein_zeta_2d, find_critical_zeros, omega)
from .expansion import (angular_lattice_sum, coeff_b0, coeff_b1,
                        coeff_b1_tilde, em_verify, leading_coeff,
                        residual_order)
from .lattice import StencilVariant, TorusGrid, spectral_zeta, spectral_zeta_1d
from .quadrature import QuadResult
# raised or warned by the functions here; the CLI maps errors to exit codes
from .errors import (ConvergenceError, DegenerateError, DescriptorError,
                     DomainError, NonFiniteError, PoleError, RangeError,
                     ShapeError, SignalLostError, TorusZetaError,
                     ZeroDenominatorError, ZeroShortfallWarning)
# called by an acceptance criterion (tests/test_acceptance.py)
from .conjecture import monotonicity_scan
from .epstein import v_factor, v_factor_inv
from .expansion import (TaylorCoefficient, h_function, series_truncation_check,
                        taylor_coefficients)
from .lattice import apply_stencil, eigenvalue
from .quadrature import (AsymptoticTerm, IntegrandSpec,
                         change_of_variables_check, regularized_integral)
from .special import complex_gamma, riemann_zeta
# traced by benchmark/spans.py
from .epstein import hardy_z_beta, hardy_z_riemann
from .lattice import eigenvalue_grid
from .special import complex_log_gamma, dirichlet_beta
from .summation import pairwise_sum
# the references that tests compare other code against
from .lattice import operator_matrix
from .quadrature import quad_periodic_2d
from .special import digamma
# paper statements, each checked by a test: the leading Euler-Maclaurin
# term of Tr (Delta_n + z^2)^(-alpha), and the factors of
# |Omega(1-s)/Omega(s)| = eta/q behind its monotonicity for b > 65
from .conjecture import eta_factor, q_factor, rho_factor
from .expansion import resolvent_leading_term
from .lattice import resolvent_trace

__version__ = "0.1.0"
