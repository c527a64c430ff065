"""Exact T-rank moment tables and circle-method asymptotics.

The package has five layers:

* `trank.qseries` — exact big-integer q-series: p(n), N_T(m, n), moments,
  and the brute-force spt oracle.
* `trank.units` — exact roots of unity: Jacobi symbols, the eta multiplier,
  the unit factors of the transformation laws, Kloosterman sums.
* `trank.specfun` — half-integer modified Bessel functions, Bernoulli
  values, the two expansion-coefficient families, and the quadrature
  integrals they multiply.
* `trank.mockforms` — numerical eta/theta/Appell-Lerch evaluators and the
  randomized transformation-law verifier.
* `trank.asymptotics` — the assembled main-term formulas, their leading
  asymptotics, and exact-vs-asymptotic comparison reports.

`trank.cli` exposes the same functionality as the `trank` command.
"""

from .asymptotics import (
    AsymptoticQuery,
    CuspExpansionReport,
    ScanReport,
    TermBreakdown,
    comparison_rows,
    garvan_scan,
    prop56_expansion_check,
    theorem_a_main,
    theorem_b_difference_leading,
    theorem_b_leading,
)
from .errors import ConvergenceError, TruncationError
from .mockforms import (
    EvaluationPoint,
    VERIFICATION_CASES,
    VerificationReport,
    c_kernel,
    eta,
    m_kernel,
    mu,
    mu_hat,
    r_function,
    taylor_moments,
    theta,
    verify_transformation,
    zwegers_a,
    zwegers_a_t,
)
from .qseries import (
    MomentTable,
    PowerSeries,
    RankCountTable,
    moment_generating_eval,
    moment_table,
    partition_number,
    partition_series,
    rank_count_table,
    spt_oracle,
)
from .specfun import (
    IntegralParams,
    bernoulli_half,
    bessel_i,
    bessel_integral,
    gauss_error,
    kappa,
    kappa_h,
    mordell_h,
    script_h,
    taylor_identity_check,
)
from .units import (
    ExactUnit,
    KloostermanValue,
    alpha_shift,
    chi_multiplier,
    jacobi_symbol,
    kloosterman_partial,
    kloosterman_sum,
    mod_inverse_pair,
    rho_residue,
)

__all__ = [
    "AsymptoticQuery",
    "ConvergenceError",
    "CuspExpansionReport",
    "EvaluationPoint",
    "ExactUnit",
    "IntegralParams",
    "KloostermanValue",
    "MomentTable",
    "PowerSeries",
    "RankCountTable",
    "ScanReport",
    "TermBreakdown",
    "TruncationError",
    "VERIFICATION_CASES",
    "VerificationReport",
    "alpha_shift",
    "bernoulli_half",
    "bessel_i",
    "bessel_integral",
    "c_kernel",
    "chi_multiplier",
    "comparison_rows",
    "eta",
    "garvan_scan",
    "gauss_error",
    "jacobi_symbol",
    "kappa",
    "kappa_h",
    "kloosterman_partial",
    "kloosterman_sum",
    "m_kernel",
    "mod_inverse_pair",
    "moment_generating_eval",
    "moment_table",
    "mordell_h",
    "mu",
    "mu_hat",
    "partition_number",
    "partition_series",
    "prop56_expansion_check",
    "r_function",
    "rank_count_table",
    "rho_residue",
    "script_h",
    "spt_oracle",
    "taylor_identity_check",
    "taylor_moments",
    "theorem_a_main",
    "theorem_b_difference_leading",
    "theorem_b_leading",
    "theta",
    "verify_transformation",
    "zwegers_a",
    "zwegers_a_t",
]

__version__ = "0.1.0"
