"""Deterministic certificates for smooth M-estimation.

Fit GLM-type convex losses, Cox partial likelihoods, nonlinear least
squares and equality-constrained problems, and obtain machine-checkable
certificates: root existence and uniqueness in an explicit ball, two-sided
error brackets, one-Newton-step expansions with explicit remainder bounds,
and certified fast approximate leave-one/k-out, marginal screening and
submodel sweeps. Nothing here is probabilistic: every claim is a finite
computation on the data at hand.
"""

import types

from .certify import (ExpansionCertificate, RootCertificate,
                      contraction_certificate, newton_step_certificate)
from .constrained import (ConstrainedCertificate, KktPoint,
                          certify_constrained, kkt_solve)
from .cox import (CoxCertificate, MuProfile, SurvivalDataset, certify_cox,
                  cox_jacobian, cox_objective, cox_score, fit_cox,
                  mu_profile, softmax_ratio_check)
from .errors import (ConvergenceError, DegenerateRiskSetError,
                     InfeasiblePointError, InvalidInputError, MestcertError,
                     RankDeficientError, SingularMatrixError)
from .glm import (Dataset, GlmCertificate, certify, fit, hessian,
                  hessian_holder_constant, score)
from .losses import LossFamily, make_family
from .nls import (LinkSpec, NlsCertificate, NlsConstants, certify_nls,
                  fit_nls, identity_link, logistic_link, nls_constants,
                  nls_grad)
from .numkit import op_norm, solve_linear
from .resample import (LooEntry, LooReport, PosiModel, PosiReport,
                       ScreenCoordinate, ScreenReport, loo_exact, loo_sweep,
                       posi_sweep, screen_marginal)

__version__ = "0.1.0"

#: every public name imported above (the function ``certify`` shadows the
#: submodule of that name); the submodules themselves are left out
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, types.ModuleType))
