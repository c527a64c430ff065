"""Numerical verification of the modular machinery.

Every transformation law used by the asymptotic analysis is checked as a
numeric identity at randomized points: the eta and theta laws with their
exact root-of-unity multipliers, Zwegers' completed mu-function, the
R-function laws (including the composite law against the Mordell
integral), and the two kernel transformation laws that combine all of it.
"""

from trank import VERIFICATION_CASES, verify_transformation

print(f"{'case':20s} {'trials':>6s} {'max rel err':>12s}  status")
for case in VERIFICATION_CASES:
    report = verify_transformation(case, trials=20, seed=7)
    status = "ok" if report.passed else f"{len(report.failures)} FAILURES"
    print(f"{case:20s} {report.trials:6d} {report.max_rel_err:12.3e}  {status}")

# The reports are deterministic: same case + seed means equal reports, so
# byte-identical JSON, which the CLI relies on (`trank verify --case eta --seed 7`).
a = verify_transformation("eta", trials=10, tolerance=1e-8, seed=123)
b = verify_transformation("eta", trials=10, tolerance=1e-8, seed=123)
assert a == b
print("\nreports are deterministic for a fixed seed")
