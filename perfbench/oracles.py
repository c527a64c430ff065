"""Checks for trank's outputs that share no code with trank.

p(n) comes from Euler's pentagonal-number recurrence (cross-checked
against sympy's Hardy-Ramanujan-Rademacher `npartitions`), and every
moment value is recomputed from the defining theta-side sum

    N_T(m, n) = sum_{j>=1} (-1)^(j-1) [p(n - e) - p(n - e - j)],
    e = j(Tj-1)/2 + |m| j,

against that p(n).  Each `check_*` function takes the text a command
wrote and returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys

# The accuracy the README documents for the assembled main term, against
# the exact value: T in {1, 3} (mu part only) and T > 3 (with the Mordell
# part), at the workloads' sizes.
MAIN_TERM_TOL = {"mu_only": 1e-12, "with_mordell": 1e-10}

SCAN_FULL_TO = 100

# `trank verify` default per-case tolerances, as the project README states.
VERIFY_TOL = 1e-8
VERIFY_TOL_PROP_4_2 = 1e-7
VERIFY_CASES = (
    "eta", "theta_elliptic", "theta_modular", "muhat_elliptic",
    "muhat_modular", "R_props", "R_dissection", "AT_decomposition",
    "prop_4_1", "prop_4_2", "R_composite", "muhat_composite",
)


def partition_numbers(n_max: int) -> list[int]:
    """p(0..n_max) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        s = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            g2 = g1 + k
            term = p[n - g1] + (p[n - g2] if g2 <= n else 0)
            s += term if k % 2 else -term
            k += 1
        p[n] = s
    return p


def sympy_mismatches(p: list[int], ns) -> list[str]:
    """Compare p at `ns` with sympy's `npartitions`, run in a child
    interpreter so that sympy does not count towards this process's memory."""
    ns = sorted(set(ns))
    code = ("import sys; from sympy import npartitions; "
            "print(' '.join(str(npartitions(int(a))) for a in sys.argv[1:]))")
    out = subprocess.run([sys.executable, "-c", code, *map(str, ns)],
                         capture_output=True, text=True, check=True, timeout=120)
    theirs = [int(v) for v in out.stdout.split()]
    return [f"p({n}): pentagonal {p[n]} != sympy {v}"
            for n, v in zip(ns, theirs) if p[n] != v]


def theta_moment(T: int, r: int, n: int, p: list[int]) -> int:
    """m_T^r(n) = sum_m m^r N_T(m, n), straight from the defining sum."""
    if r % 2:
        return 0
    total = 0
    j = 1
    while True:
        base = j * (T * j - 1) // 2
        if base > n:
            break
        sign = 1 if j % 2 else -1
        m = 0
        while base + m * j <= n:
            e = n - base - m * j
            count = p[e] - (p[e - j] if e >= j else 0)
            total += sign * (1 if m == 0 else 2) * m**r * count
            m += 1
        j += 1
    return total


def _rel(exact: int, approx: float) -> float:
    return abs(exact - approx) / abs(exact)


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_moments(text: str, fmt: str, T: int, r: int, n_max: int,
                  p: list[int], sample_ns) -> list[str]:
    rows = json.loads(text) if fmt == "json" else _csv_rows(text)
    if len(rows) != n_max + 1:
        return [f"moments: {len(rows)} rows, expected {n_max + 1}"]
    values = []
    for n, row in enumerate(rows):
        if (int(row["T"]), int(row["r"]), int(row["n"])) != (T, r, n):
            return [f"moments: row {n} is labelled {row}"]
        values.append(int(row["value"]))
    bad = [f"moments T={T} r={r}: m({n}) = {values[n]}, theta-side sum "
           f"{theta_moment(T, r, n, p)}"
           for n in sorted(set(sample_ns)) if values[n] != theta_moment(T, r, n, p)]
    if r == 0 and T in (1, 3):
        bad += [f"moments T={T} r=0: row sum {values[n]} != p({n})"
                for n in range(1, n_max + 1) if values[n] != p[n]]
    if T == 1 and r == 2:
        bad += [f"crank identity fails at n={n}"
                for n in range(1, n_max + 1) if values[n] != 2 * n * p[n]]
    return bad


def check_scan(text: str, T: int, r: int, n_lo: int, n_hi: int,
               p: list[int], sample_ns) -> list[str]:
    rows = _csv_rows(text)
    if len(rows) != 1:
        return [f"scan: {len(rows)} rows, expected 1"]
    row = rows[0]
    if (int(row["T"]), int(row["r"]), int(row["n_lo"]), int(row["n_hi"])) != \
            (T, r, n_lo, n_hi):
        return [f"scan: header fields {row}"]
    violations = [int(v) for v in row["violations"].split(";") if v]
    bad = []
    n0 = max(n_lo, max(violations) + 1) if violations else n_lo
    if int(row["n0"]) != n0:
        bad.append(f"scan: n0 {row['n0']} inconsistent with violations")
    listed = set(violations)
    # Violations occur at small n (n <= 10 for T <= 23), so every n up to
    # SCAN_FULL_TO is recomputed, and sampled n beyond it.
    every = range(n_lo, min(n_hi, SCAN_FULL_TO) + 1)
    for n in sorted(set(sample_ns) | listed | set(every)):
        holds = theta_moment(T - 2, r, n, p) > theta_moment(T, r, n, p)
        if holds == (n in listed):
            bad.append(f"scan T={T} r={r}: n={n} listed={n in listed}, "
                       f"inequality holds={holds}")
    return bad


def check_compare(text: str, T: int, r: int, ns, p: list[int]) -> list[str]:
    rows = _csv_rows(text)
    if [int(row["n"]) for row in rows] != sorted(set(ns)):
        return [f"compare: rows for n={[row['n'] for row in rows]}, expected {ns}"]
    tol = MAIN_TERM_TOL["mu_only" if T <= 3 else "with_mordell"]
    bad = []
    for row in rows:
        n = int(row["n"])
        exact = theta_moment(T, r, n, p)
        if int(row["exact"]) != exact:
            bad.append(f"compare T={T} r={r} n={n}: exact {row['exact']} != {exact}")
            continue
        err = _rel(exact, float(row["thmA_main"]))
        if err > tol:
            bad.append(f"compare T={T} r={r} n={n}: main term rel err {err:.3e} > {tol}")
        if not math.isclose(float(row["rel_err_A"]), err, rel_tol=1e-6, abs_tol=1e-17):
            bad.append(f"compare T={T} r={r} n={n}: rel_err_A {row['rel_err_A']} "
                       f"!= {err:.17g}")
    return bad


def check_asymptotic(text: str, T: int, r: int, n: int, p: list[int]) -> list[str]:
    rows = _csv_rows(text)
    if len(rows) != 1 or int(rows[0]["n"]) != n:
        return [f"asymptotic: rows {rows}, expected one for n={n}"]
    row = rows[0]
    exact = theta_moment(T, r, n, p)
    mu, total = float(row["thmA_mu"]), float(row["thmA_total"])
    tol = MAIN_TERM_TOL["mu_only" if T <= 3 else "with_mordell"]
    bad = []
    if _rel(exact, total) > tol:
        bad.append(f"asymptotic T={T} r={r} n={n}: rel err {_rel(exact, total):.3e} > {tol}")
    if T > 3 and not abs(exact - mu) > abs(exact - total):
        bad.append(f"asymptotic T={T} r={r} n={n}: the Mordell part does not "
                   "bring the main term closer to the exact value")
    return bad


def check_verify(text: str, trials: int, seed: int) -> list[str]:
    reports = json.loads(text)
    if [rep["case"] for rep in reports] != list(VERIFY_CASES):
        return [f"verify: cases {[rep['case'] for rep in reports]}"]
    bad = []
    for rep in reports:
        tol = VERIFY_TOL_PROP_4_2 if rep["case"] == "prop_4_2" else VERIFY_TOL
        if (rep["trials"], rep["seed"], rep["tolerance"]) != (trials, seed, tol):
            bad.append(f"verify {rep['case']}: header {rep['trials']}, "
                       f"{rep['seed']}, {rep['tolerance']}")
        if not (rep["passed"] and not rep["failures"] and rep["max_rel_err"] <= tol):
            bad.append(f"verify {rep['case']} seed={seed}: max_rel_err "
                       f"{rep['max_rel_err']:.3e} at tolerance {tol}")
    return bad
