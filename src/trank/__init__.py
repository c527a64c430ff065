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

Each public name below is imported from its layer on first access, so
`import trank` loads no layer, and the exact side (`trank.qseries`) never
loads numpy: only `units`, `specfun` and the layers above them do.  A
layer becomes an attribute of `trank` once it is imported, by name
(`import trank.asymptotics`) or through one of its public names.
"""

import importlib

# the layer that defines each public name
_EXPORTS = {
    "asymptotics": (
        "AsymptoticQuery", "CuspExpansionReport", "ScanReport", "TermBreakdown",
        "comparison_rows", "garvan_scan", "prop56_expansion_check", "theorem_a_main",
        "theorem_b_difference_leading", "theorem_b_leading",
    ),
    "errors": ("ConvergenceError", "TruncationError"),
    "mockforms": (
        "EvaluationPoint", "TOLERANCES", "VERIFICATION_CASES", "VerificationReport",
        "c_kernel", "verify_transformation",
    ),
    "qseries": (
        "MomentTable", "RankCountTable", "moment_generating_eval", "moment_table",
        "partition_number", "partition_series", "rank_count_table",
    ),
    "specfun": (
        "bernoulli_half", "bessel_i", "bessel_integral", "kappa", "kappa_h",
        "mordell_h", "script_h",
    ),
    "units": (
        "KloostermanValue", "alpha_shift", "chi_multiplier", "kloosterman_partial",
        "kloosterman_sum", "neg_inverse", "rho_residue",
    ),
}
_LAYER = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAYER)

__version__ = "0.1.0"


def __getattr__(name):
    layer = _LAYER.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
