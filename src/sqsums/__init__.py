"""Squared-basis sums of classical positive linear operators.

Evaluation by independent routes (series, closed forms, quadrature, exact
rational algebra) and machine verification of the identities, recurrences,
differential equations, Heun-form solutions and upper bounds they satisfy.
"""

__version__ = "0.1.0"

from .core import (
    DomainError,
    FamilyId,
    ParameterError,
    Params,
    basis,
    basis_sum,
    gen_binom,
)
from .evalnum import (
    EvalResult,
    Method,
    bessel_i0,
    bessel_i0e,
    hyp2f1_diag,
    s_closed,
    s_closed_grid,
    s_quad,
    s_quad_grid,
    s_series,
    s_series_grid,
    t_closed,
    t_quad,
)
from .exactalg import (
    HeunParams,
    RationalFn,
    RationalPoly,
    f_poly_direct,
    f_poly_parseval,
    g_rational,
    heun_residual,
    j_rational,
    ode_residual_poly,
    recurrence_check,
    u_rational,
)

__all__ = [
    "DomainError",
    "EvalResult",
    "FamilyId",
    "HeunParams",
    "Method",
    "ParameterError",
    "Params",
    "RationalFn",
    "RationalPoly",
    "basis",
    "basis_sum",
    "bessel_i0",
    "bessel_i0e",
    "f_poly_direct",
    "f_poly_parseval",
    "g_rational",
    "gen_binom",
    "heun_residual",
    "hyp2f1_diag",
    "j_rational",
    "ode_residual_poly",
    "recurrence_check",
    "s_closed",
    "s_closed_grid",
    "s_quad",
    "s_quad_grid",
    "s_series",
    "s_series_grid",
    "t_closed",
    "t_quad",
    "u_rational",
    "__version__",
]
