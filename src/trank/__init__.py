"""Exact T-rank moment tables and circle-method asymptotics.

The package has five layers:

* `trank.qseries` — exact big-integer q-series: p(n), N_T(m, n), moments,
  and spt(n).
* `trank.units` — exact roots of unity: the eta multiplier,
  the unit factors of the transformation laws, Kloosterman sums.
* `trank.specfun` — half-integer modified Bessel functions, Bernoulli
  values, the two expansion-coefficient families, and the quadrature
  integrals they multiply.
* `trank.mockforms` — numerical eta/theta/Appell-Lerch evaluators and the
  randomized transformation-law verifier.
* `trank.asymptotics` — the assembled main-term formulas, their leading
  asymptotics, and exact-vs-asymptotic comparison reports.

`trank.cli` is the `trank` command, and the one module that shapes reports.
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
    TOLERANCES,
    VERIFICATION_CASES,
    VerificationReport,
    c_kernel,
    verify_transformation,
)
from .qseries import (
    MomentTable,
    RankCountTable,
    moment_generating_eval,
    moment_table,
    partition_number,
    partition_series,
    rank_count_table,
)
from .specfun import (
    bernoulli_half,
    bessel_i,
    bessel_integral,
    kappa,
    kappa_h,
    mordell_h,
    script_h,
)
from .units import (
    KloostermanValue,
    alpha_shift,
    chi_multiplier,
    kloosterman_partial,
    kloosterman_sum,
    neg_inverse,
    rho_residue,
)

__all__ = [
    "AsymptoticQuery",
    "ConvergenceError",
    "CuspExpansionReport",
    "EvaluationPoint",
    "KloostermanValue",
    "MomentTable",
    "RankCountTable",
    "ScanReport",
    "TermBreakdown",
    "TOLERANCES",
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
    "garvan_scan",
    "kappa",
    "kappa_h",
    "kloosterman_partial",
    "kloosterman_sum",
    "moment_generating_eval",
    "moment_table",
    "mordell_h",
    "neg_inverse",
    "partition_number",
    "partition_series",
    "prop56_expansion_check",
    "rank_count_table",
    "rho_residue",
    "script_h",
    "theorem_a_main",
    "theorem_b_difference_leading",
    "theorem_b_leading",
    "verify_transformation",
]

__version__ = "0.1.0"
