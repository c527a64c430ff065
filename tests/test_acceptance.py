"""Acceptance suite: one test per criterion, each printing a PASS line.

Expensive exact tables are shared through module-scoped fixtures.  The
numeric thresholds for the ratio trends were locked after one calibration
run of the exact engine (values recorded next to the assertions).

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import cmath
import math
import random
from fractions import Fraction

import pytest

from trank.asymptotics import (
    AsymptoticQuery,
    garvan_scan,
    prop56_expansion_check,
    theorem_a_main,
    theorem_b_leading,
)
from trank.mockforms import (
    VERIFICATION_CASES,
    eta_tau,
    theta_tau,
    verify_transformation,
    zwegers_a_tau,
)
from trank.qseries import (
    moment_table,
    partition_number,
    rank_count_table,
)
from trank.specfun import bernoulli_half, bessel_i, kappa
from trank.units import kloosterman_sum

from helpers import rel_err, spt_oracle_upto, taylor_identity_check
from test_specfun import bessel_series_mp
from unit_oracles import kloosterman_units


def report(criterion: str, passed: bool, detail: str = "") -> None:
    line = f"{'PASS' if passed else 'FAIL'} {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


TREND_PAIRS = ((1, 2), (3, 2), (5, 2), (1, 4))


@pytest.fixture(scope="module")
def trend_tables():
    return {(T, r): moment_table(T, r, 2000) for (T, r) in TREND_PAIRS}


def test_criterion_1_exact_engine_oracles():
    m1 = moment_table(1, 2, 60)
    m3 = moment_table(3, 2, 60)
    spt = spt_oracle_upto(60)
    spt_ok = all(m1[n] - m3[n] == 2 * spt[n - 1] for n in range(1, 61))
    row_ok = True
    for T in (1, 3):
        table = rank_count_table(T, 60)
        row_ok = row_ok and all(
            table.row_sum(n) == partition_number(n) for n in range(1, 61)
        )
    odd_ok = True
    for T in range(1, 24, 2):
        table = rank_count_table(T, 100)
        for r in (1, 3, 5):
            odd_ok = odd_ok and all(table.moment(r, n) == 0 for n in range(101))
        odd_ok = odd_ok and all(
            v == 0 for r in (1, 3, 5) for v in moment_table(T, r, 100).values
        )
    report("criterion 1: exact-engine oracle suite",
           spt_ok and row_ok and odd_ok,
           "spt identity, row sums = p(n), odd moments vanish")


def test_criterion_2_kloosterman_k1():
    exact_ok = True
    float_ok = True
    for n in range(101):
        (unit,) = kloosterman_units(1, n)
        exact_ok = exact_ok and unit.angle == 0 and unit.scale == 1.0
        float_ok = float_ok and abs(kloosterman_sum(1, n).value - 1) <= 1e-12
    report("criterion 2: K_1(n) = 1 for n <= 100", exact_ok and float_ok,
           "exact angle arithmetic and float check")


def test_criterion_3_transformation_suites():
    results = []
    ok = True
    for case in VERIFICATION_CASES:
        tol = 1e-7 if case == "prop_4_2" else 1e-8
        rep = verify_transformation(case, trials=20, tolerance=tol, seed=7)
        results.append(f"{case}:{rep.max_rel_err:.1e}")
        ok = ok and rep.passed
    # the t = 0 kernel's two closed forms (Appell-Lerch vs eta-quotient)
    rng = random.Random(7)
    worst = 0.0
    for _ in range(20):
        k = rng.randrange(1, 6)
        h = rng.choice([x for x in range(k) if math.gcd(x, k) == 1]) if k > 1 else 0
        z = complex(rng.uniform(0.3, 0.85), rng.uniform(-0.3, 0.3))
        u = complex(rng.uniform(0.05, 0.2), rng.uniform(-0.05, 0.05))
        T = rng.choice([1, 3, 5, 7])
        tau = (h + 1j * z) / k
        a_form = (-2j * cmath.sin(math.pi * u) * cmath.exp(1j * math.pi * tau / 12)
                  / eta_tau(tau) * zwegers_a_tau(T * u, 0.0, T * tau))
        quotient = (-2.0 * cmath.sin(math.pi * u) * cmath.exp(1j * math.pi * tau / 12)
                    * eta_tau(T * tau) ** 3
                    / (eta_tau(tau) * theta_tau(T * u, T * tau)))
        worst = max(worst, rel_err(a_form, quotient))
    ok = ok and worst <= 1e-8
    report("criterion 3: transformation-law suites", ok,
           " ".join(results) + f" dual_form:{worst:.1e}")


def test_criterion_4_coefficient_identities():
    rng = random.Random(6)
    worst = 0.0
    for _ in range(5):
        nu = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
        z = complex(rng.uniform(0.4, 1.0), rng.uniform(-0.3, 0.3))
        lam = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
        worst = max(worst, taylor_identity_check("kappa", nu, z, 0.0, 8))
        worst = max(worst, taylor_identity_check("kappa_h", nu, z, lam, 8))
    exact_ok = all(
        kappa(0, 0, r // 2) == ((-1) ** (r // 2) * bernoulli_half(r), 0)
        for r in range(0, 13, 2)
    )
    report("criterion 4: coefficient identities", worst <= 1e-9 and exact_ok,
           f"cauchy worst {worst:.1e}; top coefficient exact to r = 12")


def test_criterion_5_bessel_layer():
    worst = 0.0
    for two in range(-3, 32, 2):
        order = Fraction(two, 2)
        for x in (0.1, 0.3, 1.0, 1.7, 3.0, 5.0, 12.0, 20.0, 31.0, 50.0):
            worst = max(worst, rel_err(bessel_i(order, x),
                                       bessel_series_mp(order, x)))
    ratio_ok = True
    for two in (-3, -1, 1, 3):
        ratio = (bessel_i(Fraction(two, 2), 200.0)
                 * math.sqrt(2 * math.pi * 200.0) * math.exp(-200.0))
        ratio_ok = ratio_ok and 0.99 <= ratio <= 1.01
    report("criterion 5: Bessel layer", worst <= 1e-10 and ratio_ok,
           f"series-oracle worst {worst:.1e}; leading ratio in [0.99, 1.01]")


def test_criterion_6_theorem_b_trend(trend_tables):
    ok = True
    details = []
    for (T, r) in TREND_PAIRS:
        table = trend_tables[(T, r)]
        gaps = []
        for n in (250, 500, 1000, 2000):
            gaps.append(abs(table[n] / theorem_b_leading(T, r, n) - 1))
        ratio_1000 = table[1000] / theorem_b_leading(T, r, 1000)
        # calibration run: ratios at n = 1000 were 0.986, 0.961, 0.937, 0.945
        ok = ok and 0.5 <= ratio_1000 <= 1.5
        ok = ok and all(a > b for a, b in zip(gaps, gaps[1:]))
        details.append(f"(T={T},r={r}):{ratio_1000:.3f}")
    report("criterion 6: leading-asymptotic reproduction", ok, " ".join(details))


def test_criterion_7_theorem_a_tightness(trend_tables):
    ok = True
    details = []
    for (T, r) in TREND_PAIRS:
        table = trend_tables[(T, r)]
        rel = {}
        for n in (400, 1000, 1600):
            breakdown = theorem_a_main(AsymptoticQuery(T=T, r=r, n=n))
            rel[n] = abs(table[n] - breakdown.total) / table[n]
        rel_b = abs(table[1000] - theorem_b_leading(T, r, 1000)) / table[1000]
        ok = ok and rel[1600] < rel[400] and rel[1000] < rel_b
        details.append(f"(T={T},r={r}):{rel[400]:.1e}->{rel[1600]:.1e}")
    report("criterion 7: full main-term tightness", ok, " ".join(details))


def test_criterion_8_cusp_expansion():
    ok = True
    details = []
    for T in (1, 5):
        reports = [prop56_expansion_check(T, 2, 0, 1, z)
                   for z in (0.5, 0.25, 0.125)]
        d = [r.discrepancy for r in reports]
        ok = ok and d[0] > d[1] > d[2]
        details.append(f"T={T}:{d[0]:.1e}>{d[1]:.1e}>{d[2]:.1e}")
        if T == 5:
            ok = ok and reports[-1].ablated_discrepancy > reports[-1].discrepancy
            details.append(f"ablated:{reports[-1].ablated_discrepancy:.1e}")
    report("criterion 8: cusp-expansion comparison", ok, " ".join(details))


def test_criterion_9_inequality_scan():
    ok = True
    details = []
    # n0 values recorded from the exact oracle run: 1, 1, 2, 2
    expected_n0 = {(3, 2): 1, (3, 4): 1, (5, 2): 2, (5, 4): 2}
    for (T, r), n0 in expected_n0.items():
        rep = garvan_scan(T, r, 1, 1500)
        ok = ok and rep.n0 == n0 and rep.n0 <= 50 and rep.holds_from_n0
        details.append(f"(T={T},r={r}):n0={rep.n0}")
    report("criterion 9: exact moment-inequality scan", ok, " ".join(details))


def test_criterion_10_determinism(tmp_path):
    from trank.cli import main

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = main(["verify", "--case", "prop_4_1", "--trials", "10",
                     "--seed", "42", "--format", "json", "--out", str(path)])
        assert code == 0
    same_verify = paths[0].read_bytes() == paths[1].read_bytes()
    csvs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in csvs:
        code = main(["compare", "--T", "3", "--r", "2", "--n", "50,100",
                     "--out", str(path)])
        assert code == 0
    same_compare = csvs[0].read_bytes() == csvs[1].read_bytes()
    report("criterion 10: deterministic reports", same_verify and same_compare,
           "byte-identical verify and compare outputs")
