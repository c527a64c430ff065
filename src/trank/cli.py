"""Command-line front end.

Subcommands: `moments` (exact tables), `asymptotic` (main-term values),
`compare` (exact vs main terms), `verify` (transformation-law suites),
`scan` (exact moment-inequality scan over a contiguous `lo..hi`),
`spt-check` (the smallest-parts identity).  Data goes to --out or stdout
as CSV or JSON, shaped and written here only: the library returns
dataclasses and never builds a report's JSON object or writes a file.
Progress and diagnostics go to stderr only.  Runs are deterministic: the
same config and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys

from . import asymptotics, mockforms, qseries

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


def n_range(text: str) -> tuple[int, int]:
    """An argparse type: a contiguous range `lo..hi`, as (lo, hi)."""
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo..hi, got {text!r}") from None


def positive_int(text: str) -> int:
    """An argparse type: an int >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """An argparse type: a finite float > 0 (NaN and inf are rejected)."""
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


@contextlib.contextmanager
def _fits_in_memory(flag: str, value):
    """A table or n range too large to allocate is invalid `flag` input."""
    try:
        yield
    except (MemoryError, OverflowError):
        raise ValueError(f"{flag} {value} is too large to hold in memory") from None


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


def _complex_pair(value) -> list:
    """A complex number as [real, imag]; any other type is not JSON."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1, default=_complex_pair) + "\n"


def breakdown_dict(breakdown: asymptotics.TermBreakdown) -> dict:
    """The JSON object of one main-term breakdown: each contribution is
    keyed by its comma-joined index tuple and given as [real, imag]."""
    query = breakdown.query
    return {"T": query.T, "r": query.r, "n": query.n, "k_cap": query.cap,
            "mu_part": breakdown.mu_part, "mordell_part": breakdown.mordell_part,
            "total": breakdown.total, "dropped_terms": breakdown.dropped_terms,
            **{name: {",".join(map(str, key)): [v.real, v.imag]
                      for key, v in getattr(breakdown, name).items()}
               for name in ("mu_contributions", "mordell_contributions")}}


def _run_moments(args: argparse.Namespace) -> int:
    with _fits_in_memory("--n-max", args.n_max):
        table = qseries.moment_table(args.T, args.r, args.n_max)
    if args.fmt == "csv":
        text = _csv_text(["T", "r", "n", "value"],
                         [(args.T, args.r, n, v) for n, v in enumerate(table.values)])
    else:
        text = _json_text([{"T": args.T, "r": args.r, "n": n, "value": str(v)}
                           for n, v in enumerate(table.values)])
    _emit(text, _resolve_out(args, f"moments_T{args.T}_r{args.r}.{args.fmt}"))
    return 0


def _run_asymptotic(args: argparse.Namespace) -> int:
    queries = [asymptotics.AsymptoticQuery(T=args.T, r=args.r, n=n, k_cap=args.k_cap)
               for n in args.n]
    # theorem B rejects an n past double range before any main-term work
    leadings = [asymptotics.theorem_b_leading(args.T, args.r, query.n) for query in queries]
    rows = []
    payload = []
    for query, leading in zip(queries, leadings):
        with _fits_in_memory("--k-cap", query.cap):
            breakdown = asymptotics.theorem_a_main(query)
        if args.fmt == "csv":
            rows.append([args.T, args.r, query.n, f"{breakdown.mu_part:.17g}",
                         f"{breakdown.mordell_part:.17g}", f"{breakdown.total:.17g}",
                         f"{leading:.17g}"])
        else:  # the per-term dict is formatted only for the JSON report
            entry = breakdown_dict(breakdown)
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
              f"{row.thm_b_leading:.17g}",
              *("" if err is None else f"{err:.17g}" for err in (row.rel_err_a, row.rel_err_b))]
             for row in rows])
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
        tol = mockforms.TOLERANCES[case] * args.tol_scale
        report = mockforms.verify_transformation(
            case, trials=args.trials, tolerance=tol, seed=args.seed)
        reports.append(dict(dataclasses.asdict(report), passed=report.passed))
        failed = failed or not report.passed
        print(f"{case}: max_rel_err={report.max_rel_err:.3e} "
              f"{'ok' if report.passed else 'FAILED'}", file=sys.stderr)
    text = _json_text(reports if args.case is None else reports[0])
    _emit(text, _resolve_out(args, "verify_report.json"))
    return 1 if failed else 0


def _run_scan(args: argparse.Namespace) -> int:
    n_lo, n_hi = args.n_range
    with _fits_in_memory("--n", n_hi):
        report = asymptotics.garvan_scan(args.T, args.r, n_lo, n_hi)
    text = _json_text(dataclasses.asdict(report)) if args.fmt == "json" else _csv_text(
        ["T", "r", "n_lo", "n_hi", "n0", "violations"],
        [[report.T, report.r, report.n_lo, report.n_hi, report.n0,
          ";".join(map(str, report.violations))]])
    _emit(text, _resolve_out(args, f"scan_T{args.T}_r{args.r}.{args.fmt}"))
    print(f"scan T={args.T} r={args.r}: n0={report.n0} "
          f"violations={len(report.violations)}", file=sys.stderr)
    return 0 if report.n0 <= n_hi else 1


def _run_spt_check(args: argparse.Namespace) -> int:
    with _fits_in_memory("--n-max", args.n_max):
        m1 = qseries.moment_table(1, 2, args.n_max)
        m3 = qseries.moment_table(3, 2, args.n_max)
        spts = qseries.spt_series(args.n_max)
    rows = []
    ok = True
    for n in range(1, args.n_max + 1):
        spt = spts[n]
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser every `main` call shares, built on first use."""
    parser = _Parser(
        prog="trank",
        description="Exact T-rank moment tables and their circle-method "
                    "main-term asymptotics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_T=True, formats=("csv", "json")):
        if needs_T:
            p.add_argument("--T", type=int, required=True, help="odd positive T")
            p.add_argument("--r", type=int, required=True, help="moment order")
        p.add_argument("--out", help="output path (default: stdout, or "
                       f"${OUTPUT_DIR_ENV} if set)")
        p.add_argument("--format", dest="fmt", choices=formats,
                       default=formats[0])

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
    common(p, needs_T=False, formats=("json",))
    p.add_argument("--case", default=None, choices=mockforms.VERIFICATION_CASES,
                   help="one suite (default: all twelve)")
    p.add_argument("--trials", type=positive_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol-scale", type=positive_float, default=1.0,
                   help="multiplier on every per-case tolerance")
    p.add_argument("--threads", type=int, choices=(1,), default=1,
                   help="accepted for compatibility; trials run in one thread")

    p = sub.add_parser("scan", help="exact m_(T-2)^r > m_T^r scan")
    common(p)
    p.add_argument("--n", dest="n_range", type=n_range, default="1..1500",
                   metavar="LO..HI", help="contiguous range lo..hi")

    p = sub.add_parser("spt-check", help="2 spt(n) = m_1^2(n) - m_3^2(n)")
    common(p, needs_T=False)
    p.add_argument("--n-max", type=positive_int, default=60)

    return parser


def main(argv=None) -> int:
    """Parse and dispatch one command; returns the process exit code.

    Invalid input, whether the parser or the library rejects it, an n
    too large for a table, a k_cap that the Mordell part cannot take and
    an output path that cannot be written end with exit status 2 and one
    `error:` line on stderr.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if hasattr(args, "n"):
            with _fits_in_memory("--n", args.n):
                args.n = parse_n_values(args.n)
        return _DISPATCH[args.command](args)
    except (OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
