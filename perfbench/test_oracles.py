"""Tests of the benchmark's own checks: each accepts trank's real output
and rejects a corrupted copy of it.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from trank import cli, qseries, units  # noqa: E402

P = oracles.partition_numbers(400)


def trank_output(tmp_path, *argv, fmt="csv") -> str:
    out = tmp_path / f"out.{fmt}"
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main([*argv, "--out", str(out)])
    assert rc == 0
    return out.read_text()


def bump_csv_value(text: str, n: int, column: str = "value") -> str:
    """The CSV with the entry at row n of `column` increased by one."""
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[n + 1].split(",")
    col = header.index(column)
    cells[col] = str(int(cells[col]) + 1)
    lines[n + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_pentagonal_recurrence_matches_sympy():
    assert oracles.sympy_mismatches(P, [1, 2, 50, 399, 400]) == []
    wrong = list(P)
    wrong[50] += 1
    assert oracles.sympy_mismatches(wrong, [50]) != []


def test_theta_side_sum_matches_small_partition_counts():
    # T = 3 counts Dyson's rank; the five partitions of 4 have ranks
    # 3, 1, 0, -1, -3.
    assert oracles.theta_moment(3, 2, 4, P) == 20
    assert oracles.theta_moment(1, 2, 4, P) == 2 * 4 * P[4]
    assert oracles.theta_moment(3, 0, 7, P) == P[7]


@pytest.mark.parametrize("T,r,fmt", [(5, 4, "csv"), (7, 6, "json")])
def test_moments_entry_off_by_one_is_rejected(tmp_path, T, r, fmt):
    text = trank_output(tmp_path, "moments", "--T", str(T), "--r", str(r),
                        "--n-max", "120", "--format", fmt, fmt=fmt)
    check = dict(fmt=fmt, T=T, r=r, n_max=120, p=P, sample_ns=[37, 120])
    assert oracles.check_moments(text, **check) == []
    if fmt == "csv":
        corrupted = bump_csv_value(text, 37)
    else:
        rows = json.loads(text)
        rows[37]["value"] = str(int(rows[37]["value"]) + 1)
        corrupted = json.dumps(rows)
    assert oracles.check_moments(corrupted, **check) != []


@pytest.mark.parametrize("T,r", [(1, 0), (3, 0), (1, 2)])
def test_row_sums_and_crank_identity_catch_unsampled_entries(tmp_path, T, r):
    text = trank_output(tmp_path, "moments", "--T", str(T), "--r", str(r), "--n-max", "90")
    check = dict(fmt="csv", T=T, r=r, n_max=90, p=P, sample_ns=[])
    assert oracles.check_moments(text, **check) == []
    assert oracles.check_moments(bump_csv_value(text, 61), **check) != []


def test_scan_flipped_violation_is_rejected(tmp_path):
    text = trank_output(tmp_path, "scan", "--T", "5", "--r", "2", "--n", "1..150")
    check = dict(T=5, r=2, n_lo=1, n_hi=150, p=P, sample_ns=[3, 40, 150])
    assert oracles.check_scan(text, **check) == []
    header, row = text.splitlines()
    fields = row.split(",")
    listed = [int(v) for v in fields[5].split(";") if v]
    assert listed, "T=5, r=2 has violations at small n"
    # Drop a listed violation, or list n=150 where the inequality holds;
    # n0 follows the list, so only the flipped entry is wrong.
    for flipped in (listed[:-1], listed + [150]):
        fields[4] = str(max(flipped) + 1 if flipped else 1)
        fields[5] = ";".join(map(str, flipped))
        assert oracles.check_scan(f"{header}\n{','.join(fields)}\n", **check) != []


def test_compare_rejects_wrong_exact_and_main_term(tmp_path):
    text = trank_output(tmp_path, "compare", "--T", "1", "--r", "2", "--n", "250,400")
    check = dict(T=1, r=2, ns=[250, 400], p=P)
    assert oracles.check_compare(text, **check) == []
    assert oracles.check_compare(bump_csv_value(text, 1, "exact"), **check) != []
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-9))
    lines[1] = ",".join(cells)
    assert oracles.check_compare("\n".join(lines) + "\n", **check) != []


def asymptotic_csv(T, r, n, mu, mordell):
    return ("T,r,n,thmA_mu,thmA_mordell,thmA_total,thmB_leading\n"
            f"{T},{r},{n},{mu!r},{mordell!r},{mu + mordell!r},1.0\n")


def test_asymptotic_needs_accuracy_and_the_mordell_part(tmp_path):
    text = trank_output(tmp_path, "asymptotic", "--T", "5", "--r", "2", "--n", "200")
    assert oracles.check_asymptotic(text, 5, 2, 200, P) == []
    exact = oracles.theta_moment(5, 2, 200, P)
    mu = exact * (1 + 1e-7)
    assert oracles.check_asymptotic(asymptotic_csv(5, 2, 200, mu, exact - mu),
                                    5, 2, 200, P) == []
    # A total off by more than the documented accuracy.
    assert oracles.check_asymptotic(asymptotic_csv(5, 2, 200, mu, exact * (1 + 1e-9) - mu),
                                    5, 2, 200, P) != []
    # An accurate total with no help from the Mordell part.
    assert oracles.check_asymptotic(asymptotic_csv(5, 2, 200, exact * (1 + 1e-14), 0.0),
                                    5, 2, 200, P) != []


def test_verify_failing_report_is_rejected(tmp_path):
    text = trank_output(tmp_path, "verify", "--trials", "3", "--seed", "4",
                        "--threads", "1", "--format", "json", fmt="json")
    assert oracles.check_verify(text, 3, 4) == []
    reports = json.loads(text)
    reports[9]["passed"] = False
    assert oracles.check_verify(json.dumps(reports), 3, 4) != []
    reports = json.loads(text)
    reports[0]["max_rel_err"] = 2e-8
    assert oracles.check_verify(json.dumps(reports), 3, 4) != []


def test_tracer_patches_importers_and_restores_them():
    original = units.kloosterman_partial
    from trank import asymptotics
    tracer = Tracer()
    tracer.install()
    try:
        assert asymptotics.kloosterman_partial is units.kloosterman_partial
        assert asymptotics.kloosterman_partial is not original
        qseries.partition_series.__wrapped__.cache_clear()
        qseries.moment_table(5, 2, 300)
        asymptotics.theorem_a_main(asymptotics.AsymptoticQuery(T=5, r=2, n=60))
    finally:
        tracer.uninstall()
    assert asymptotics.kloosterman_partial is original is units.kloosterman_partial
    layers = tracer.layers
    calls, incl, own = layers["qseries.partition_series"]
    assert calls == 1 and own < incl
    assert layers["qseries.euler_product"][0] == 1
    assert tracer.counts["qseries.moment_table.coeffs"] == 301
    assert tracer.counts["units.kloosterman_partial.terms"] > 0
    assert tracer.counts["asymptotics.theorem_a_main.mordell_terms"] > 0
    child = sum(s for (caller, _), (_, s) in tracer.edges.items()
                if caller == "qseries.partition_series")
    assert abs(incl - own - child) < 1e-9


def test_rounds_repeat_the_same_failing_share():
    for name, make in workloads.WORKLOADS.items():
        a, b = make(3, P), make(3, P)
        first, again = a.round(), b.round()
        assert [op.argv for op in first] == [op.argv for op in again]
        other = make(4, P).round()
        assert len(other) == len(first)
    failing = {op.label for op in workloads.MordellRounds(1, P).round()} & {
        f"asymptotic --T {T} --r {r} --n {n}" for T, r, n in workloads.MORDELL_FAILING}
    assert len(failing) == len(workloads.MORDELL_FAILING)
