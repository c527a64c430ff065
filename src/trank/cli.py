"""Command-line front end.

Subcommands: `moments` (exact tables), `asymptotic` (main-term values),
`compare` (exact vs main terms), `verify` (transformation-law suites),
`scan` (exact moment-inequality scan), `spt-check` (the smallest-parts
identity).  Data goes to --out or stdout as CSV or JSON, written here
only: the library returns data and never writes files.  Progress and
diagnostics go to stderr only.  Runs are deterministic: the same config
and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import asymptotics, mockforms, qseries

_DEFAULT_TOLS = {case: 1e-8 for case in mockforms.VERIFICATION_CASES}
_DEFAULT_TOLS["prop_4_2"] = 1e-7

OUTPUT_DIR_ENV = "TRANK_OUT_DIR"


def parse_n_values(text: str) -> list[int]:
    """`lo..hi[:step]` or a comma-separated list."""
    if ".." in text:
        lo, rest = text.split("..", 1)
        step = 1
        if ":" in rest:
            hi, step_s = rest.split(":", 1)
            step = int(step_s)
        else:
            hi = rest
        if step < 1:
            raise ValueError("range step must be >= 1")
        values = list(range(int(lo), int(hi) + 1, step))
    else:
        values = [int(x) for x in text.split(",") if x]
    if not values or any(v < 0 for v in values):
        raise ValueError(f"invalid n specification {text!r}")
    return values


def positive_int(text: str) -> int:
    """An argparse type: an int >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """An argparse type: a float > 0 (NaN is rejected)."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _resolve_out(args: argparse.Namespace, default_name: str) -> str | None:
    if args.out:
        return args.out
    env_dir = os.environ.get(OUTPUT_DIR_ENV)
    if env_dir:
        return os.path.join(env_dir, default_name)
    return None


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {path}", file=sys.stderr)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _run_moments(args: argparse.Namespace) -> int:
    table = qseries.moment_table(args.T, args.r, args.n_max)
    if args.fmt == "csv":
        text = _csv_text(["T", "r", "n", "value"], list(table.rows()))
    else:
        text = _json_text([
            {"T": T, "r": r, "n": n, "value": str(v)} for T, r, n, v in table.rows()
        ])
    _emit(text, _resolve_out(args, f"moments_T{args.T}_r{args.r}.{args.fmt}"))
    return 0


def _run_asymptotic(args: argparse.Namespace) -> int:
    queries = [asymptotics.AsymptoticQuery(T=args.T, r=args.r, n=n, k_cap=args.k_cap)
               for n in args.n]
    rows = []
    payload = []
    for query in queries:
        breakdown = asymptotics.theorem_a_main(query)
        leading = asymptotics.theorem_b_leading(args.T, args.r, query.n)
        rows.append([args.T, args.r, query.n, f"{breakdown.mu_part:.17g}",
                     f"{breakdown.mordell_part:.17g}", f"{breakdown.total:.17g}",
                     f"{leading:.17g}"])
        entry = breakdown.as_dict()
        entry["thmB_leading"] = leading
        payload.append(entry)
        print(f"n={query.n} done", file=sys.stderr)
    if args.fmt == "csv":
        text = _csv_text(
            ["T", "r", "n", "thmA_mu", "thmA_mordell", "thmA_total", "thmB_leading"],
            rows)
    else:
        text = _json_text(payload)
    _emit(text, _resolve_out(args, f"asymptotic_T{args.T}_r{args.r}.{args.fmt}"))
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    rows = asymptotics.comparison_rows(args.T, args.r, args.n)
    out = _resolve_out(args, f"compare_T{args.T}_r{args.r}.{args.fmt}")
    if args.fmt == "csv":
        text = _csv_text(
            ["T", "r", "n", "exact", "thmA_main", "thmB_leading",
             "rel_err_A", "rel_err_B"],
            [[row.T, row.r, row.n, row.exact, f"{row.thm_a_main:.17g}",
              f"{row.thm_b_leading:.17g}", f"{row.rel_err_a:.17g}",
              f"{row.rel_err_b:.17g}"] for row in rows])
    else:
        text = _json_text([
            {"T": row.T, "r": row.r, "n": row.n, "exact": str(row.exact),
             "thmA_main": row.thm_a_main, "thmB_leading": row.thm_b_leading,
             "rel_err_A": row.rel_err_a, "rel_err_B": row.rel_err_b}
            for row in rows])
    _emit(text, out)
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    cases = [args.case] if args.case else list(mockforms.VERIFICATION_CASES)
    reports = []
    failed = False
    for case in cases:
        tol = _DEFAULT_TOLS[case] * args.tol_scale
        report = mockforms.verify_transformation(
            case, trials=args.trials, tolerance=tol, seed=args.seed,
            threads=args.threads)
        reports.append(report.as_dict())
        failed = failed or not report.passed
        print(f"{case}: max_rel_err={report.max_rel_err:.3e} "
              f"{'ok' if report.passed else 'FAILED'}", file=sys.stderr)
    text = _json_text(reports if args.case is None else reports[0])
    _emit(text, _resolve_out(args, "verify_report.json"))
    return 1 if failed else 0


def _run_scan(args: argparse.Namespace) -> int:
    n_lo, n_hi = min(args.n), max(args.n)
    report = asymptotics.garvan_scan(args.T, args.r, n_lo, n_hi)
    text = _json_text(report.as_dict()) if args.fmt == "json" else _csv_text(
        ["T", "r", "n_lo", "n_hi", "n0", "violations"],
        [[report.T, report.r, report.n_lo, report.n_hi, report.n0,
          ";".join(map(str, report.violations))]])
    _emit(text, _resolve_out(args, f"scan_T{args.T}_r{args.r}.{args.fmt}"))
    print(f"scan T={args.T} r={args.r}: n0={report.n0} "
          f"violations={len(report.violations)}", file=sys.stderr)
    return 0 if report.holds_from_n0 and report.n0 <= n_hi else 1


def _run_spt_check(args: argparse.Namespace) -> int:
    m1 = qseries.moment_table(1, 2, args.n_max)
    m3 = qseries.moment_table(3, 2, args.n_max)
    rows = []
    ok = True
    for n in range(1, args.n_max + 1):
        spt = qseries.spt_oracle(n)
        holds = m1[n] - m3[n] == 2 * spt
        ok = ok and holds
        rows.append([n, spt, m1[n] - m3[n], int(holds)])
    if args.fmt == "csv":
        text = _csv_text(["n", "spt", "moment_difference", "identity_holds"], rows)
    else:
        text = _json_text([
            {"n": n, "spt": s, "moment_difference": d, "identity_holds": bool(h)}
            for n, s, d, h in rows])
    _emit(text, _resolve_out(args, "spt_check." + args.fmt))
    print(f"spt identity on 1..{args.n_max}: {'ok' if ok else 'FAILED'}", file=sys.stderr)
    return 0 if ok else 1


_DISPATCH = {
    "moments": _run_moments,
    "asymptotic": _run_asymptotic,
    "compare": _run_compare,
    "verify": _run_verify,
    "scan": _run_scan,
    "spt-check": _run_spt_check,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors end like every other invalid input:
    one `error:` line on stderr and exit status 2, with no usage block."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trank",
        description="Exact T-rank moment tables and their circle-method "
                    "main-term asymptotics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_T=True):
        if needs_T:
            p.add_argument("--T", type=int, required=True, help="odd positive T")
            p.add_argument("--r", type=int, required=True, help="moment order")
        p.add_argument("--out", help="output path (default: stdout, or "
                       f"${OUTPUT_DIR_ENV} if set)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default="csv")

    p = sub.add_parser("moments", help="exact moment table m_T^r(n)")
    common(p)
    p.add_argument("--n-max", type=int, required=True)

    p = sub.add_parser("asymptotic", help="main-term values")
    common(p)
    p.add_argument("--n", required=True, help="comma list or lo..hi[:step]")
    p.add_argument("--k-cap", type=int, default=None)

    p = sub.add_parser("compare", help="exact vs main terms")
    common(p)
    p.add_argument("--n", required=True, help="comma list or lo..hi[:step]")

    p = sub.add_parser("verify", help="transformation-law suites")
    common(p, needs_T=False)
    p.add_argument("--case", default=None, choices=mockforms.VERIFICATION_CASES,
                   help="one suite (default: all twelve)")
    p.add_argument("--trials", type=positive_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol-scale", type=positive_float, default=1.0,
                   help="multiplier on every per-case tolerance")
    p.add_argument("--threads", type=positive_int, default=1,
                   help="upper bound on worker threads")

    p = sub.add_parser("scan", help="exact m_(T-2)^r > m_T^r scan")
    common(p)
    p.add_argument("--n", default="1..1500", help="range lo..hi[:step]")

    p = sub.add_parser("spt-check", help="2 spt(n) = m_1^2(n) - m_3^2(n)")
    common(p, needs_T=False)
    p.add_argument("--n-max", type=positive_int, default=60)

    return parser


def main(argv=None) -> int:
    """Parse and dispatch one command; returns the process exit code.

    Invalid input, whether the parser or the library rejects it, ends with
    exit status 2 and one `error:` line on stderr.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if hasattr(args, "n"):
            args.n = parse_n_values(args.n)
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
