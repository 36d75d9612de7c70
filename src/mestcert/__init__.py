"""Deterministic certificates for smooth M-estimation.

Fit GLM-type convex losses, Cox partial likelihoods, nonlinear least
squares and equality-constrained problems, and obtain machine-checkable
certificates: root existence and uniqueness in an explicit ball, two-sided
error brackets, one-Newton-step expansions with explicit remainder bounds,
and certified fast approximate leave-one/k-out, marginal screening and
submodel sweeps. Nothing here is probabilistic: every claim is a finite
computation on the data at hand.
"""

from .certify import (ExpansionCertificate, RootCertificate,
                      contraction_certificate, newton_step_certificate)
from .constrained import (ConstrainedCertificate, KktPoint,
                          certify_constrained, kkt_solve,
                          least_squares_multiplier)
from .cox import (CoxCertificate, MuProfile, SurvivalDataset, certify_cox,
                  cox_jacobian, cox_objective, cox_score, fit_cox,
                  mu_profile, softmax_ratio_check)
from .errors import (ConvergenceError, DegenerateRiskSetError,
                     InfeasiblePointError, InvalidInputError, MestcertError,
                     RankDeficientError, SingularMatrixError)
from .glm import (Dataset, GlmCertificate, certify, delta, fit, hessian,
                  hessian_holder_constant, score)
from .losses import LossFamily, combine_families, make_family
from .nls import (LinkSpec, NlsCertificate, NlsConstants, certify_nls,
                  fit_nls, identity_link, logistic_link, nls_constants,
                  nls_grad, nls_hess, nls_objective, variation_modulus)
from .numkit import op_norm, solve_linear
from .resample import (LooEntry, LooReport, PosiModel, PosiReport,
                       ScreenCoordinate, ScreenReport, loo_approx, loo_exact,
                       loo_sweep, posi_sweep, screen_marginal)

__version__ = "0.1.0"

__all__ = [
    "ConstrainedCertificate",
    "ConvergenceError",
    "CoxCertificate",
    "Dataset",
    "DegenerateRiskSetError",
    "ExpansionCertificate",
    "GlmCertificate",
    "InfeasiblePointError",
    "InvalidInputError",
    "KktPoint",
    "LinkSpec",
    "LooEntry",
    "LooReport",
    "LossFamily",
    "MestcertError",
    "MuProfile",
    "NlsCertificate",
    "NlsConstants",
    "PosiModel",
    "PosiReport",
    "RankDeficientError",
    "RootCertificate",
    "ScreenCoordinate",
    "ScreenReport",
    "SingularMatrixError",
    "SurvivalDataset",
    "certify",
    "certify_constrained",
    "certify_cox",
    "certify_nls",
    "combine_families",
    "contraction_certificate",
    "cox_jacobian",
    "cox_objective",
    "cox_score",
    "delta",
    "fit",
    "fit_cox",
    "fit_nls",
    "hessian",
    "hessian_holder_constant",
    "identity_link",
    "kkt_solve",
    "least_squares_multiplier",
    "logistic_link",
    "loo_approx",
    "loo_exact",
    "loo_sweep",
    "make_family",
    "mu_profile",
    "newton_step_certificate",
    "nls_constants",
    "nls_grad",
    "nls_hess",
    "nls_objective",
    "op_norm",
    "posi_sweep",
    "score",
    "screen_marginal",
    "softmax_ratio_check",
    "solve_linear",
    "variation_modulus",
]
