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
from dataclasses import dataclass, field

from . import asymptotics, mockforms, qseries

_DEFAULT_TOLS = {case: 1e-8 for case in mockforms.VERIFICATION_CASES}
_DEFAULT_TOLS["prop_4_2"] = 1e-7

OUTPUT_DIR_ENV = "TRANK_OUT_DIR"


@dataclass
class RunConfig:
    command: str
    T: int | None = None
    r: int | None = None
    ns: list = field(default_factory=list)
    n_max: int | None = None
    case: str | None = None
    trials: int = 20
    seed: int = 0
    tol_scale: float = 1.0
    threads: int = 1
    k_cap: int | None = None
    out: str | None = None
    fmt: str = "csv"

    def validate(self) -> None:
        """Checks the library does not make itself; the library rejects a bad
        T, r or n before doing any work, and `run` reports both alike."""
        if self.command not in ("moments", "asymptotic", "compare", "verify",
                                "scan", "spt-check"):
            raise ValueError(f"unknown command {self.command!r}")
        if self.command in ("moments", "asymptotic", "compare", "scan") \
                and (self.T is None or self.r is None):
            raise ValueError("these commands need --T and --r")
        if self.command in ("asymptotic", "compare") and not self.ns:
            raise ValueError("provide --n (comma list or lo..hi[:step])")
        if self.command == "moments" and self.n_max is None:
            raise ValueError("moments needs --n-max")
        if self.command == "spt-check" and self.n_max is not None and self.n_max < 1:
            raise ValueError("spt-check needs --n-max >= 1")
        if self.command == "verify" and self.case is not None \
                and self.case not in mockforms.VERIFICATION_CASES:
            raise ValueError(
                f"unknown case {self.case!r}; choose from "
                f"{', '.join(mockforms.VERIFICATION_CASES)}")
        if self.trials < 1:
            raise ValueError("--trials must be >= 1")
        if self.threads < 1:
            raise ValueError("--threads must be >= 1")
        if self.tol_scale <= 0:
            raise ValueError("--tol-scale must be positive")
        if self.fmt not in ("csv", "json"):
            raise ValueError("--format must be csv or json")


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


def _resolve_out(config: RunConfig, default_name: str) -> str | None:
    if config.out:
        return config.out
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


def _run_moments(config: RunConfig) -> int:
    table = qseries.moment_table(config.T, config.r, config.n_max)
    if config.fmt == "csv":
        text = _csv_text(["T", "r", "n", "value"], list(table.rows()))
    else:
        text = _json_text([
            {"T": T, "r": r, "n": n, "value": str(v)} for T, r, n, v in table.rows()
        ])
    _emit(text, _resolve_out(config, f"moments_T{config.T}_r{config.r}.{config.fmt}"))
    return 0


def _run_asymptotic(config: RunConfig) -> int:
    queries = [asymptotics.AsymptoticQuery(T=config.T, r=config.r, n=n, k_cap=config.k_cap)
               for n in config.ns]
    rows = []
    payload = []
    for query in queries:
        breakdown = asymptotics.theorem_a_main(query)
        leading = asymptotics.theorem_b_leading(config.T, config.r, query.n)
        rows.append([config.T, config.r, query.n, f"{breakdown.mu_part:.17g}",
                     f"{breakdown.mordell_part:.17g}", f"{breakdown.total:.17g}",
                     f"{leading:.17g}"])
        entry = breakdown.as_dict()
        entry["thmB_leading"] = leading
        payload.append(entry)
        print(f"n={query.n} done", file=sys.stderr)
    if config.fmt == "csv":
        text = _csv_text(
            ["T", "r", "n", "thmA_mu", "thmA_mordell", "thmA_total", "thmB_leading"],
            rows)
    else:
        text = _json_text(payload)
    _emit(text, _resolve_out(config, f"asymptotic_T{config.T}_r{config.r}.{config.fmt}"))
    return 0


def _run_compare(config: RunConfig) -> int:
    rows = asymptotics.comparison_rows(config.T, config.r, config.ns)
    out = _resolve_out(config, f"compare_T{config.T}_r{config.r}.{config.fmt}")
    if config.fmt == "csv":
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


def _run_verify(config: RunConfig) -> int:
    cases = [config.case] if config.case else list(mockforms.VERIFICATION_CASES)
    reports = []
    failed = False
    for case in cases:
        tol = _DEFAULT_TOLS[case] * config.tol_scale
        report = mockforms.verify_transformation(
            case, trials=config.trials, tolerance=tol, seed=config.seed,
            threads=config.threads)
        reports.append(report.as_dict())
        failed = failed or not report.passed
        print(f"{case}: max_rel_err={report.max_rel_err:.3e} "
              f"{'ok' if report.passed else 'FAILED'}", file=sys.stderr)
    text = _json_text(reports if config.case is None else reports[0])
    _emit(text, _resolve_out(config, "verify_report.json"))
    return 1 if failed else 0


def _run_scan(config: RunConfig) -> int:
    n_lo = min(config.ns) if config.ns else 1
    n_hi = max(config.ns) if config.ns else 1500
    report = asymptotics.garvan_scan(config.T, config.r, n_lo, n_hi)
    text = _json_text(report.as_dict()) if config.fmt == "json" else _csv_text(
        ["T", "r", "n_lo", "n_hi", "n0", "violations"],
        [[report.T, report.r, report.n_lo, report.n_hi, report.n0,
          ";".join(map(str, report.violations))]])
    _emit(text, _resolve_out(config, f"scan_T{config.T}_r{config.r}.{config.fmt}"))
    print(f"scan T={config.T} r={config.r}: n0={report.n0} "
          f"violations={len(report.violations)}", file=sys.stderr)
    return 0 if report.holds_from_n0 and report.n0 <= n_hi else 1


def _run_spt_check(config: RunConfig) -> int:
    n_max = 60 if config.n_max is None else config.n_max
    m1 = qseries.moment_table(1, 2, n_max)
    m3 = qseries.moment_table(3, 2, n_max)
    rows = []
    ok = True
    for n in range(1, n_max + 1):
        spt = qseries.spt_oracle(n)
        holds = m1[n] - m3[n] == 2 * spt
        ok = ok and holds
        rows.append([n, spt, m1[n] - m3[n], int(holds)])
    if config.fmt == "csv":
        text = _csv_text(["n", "spt", "moment_difference", "identity_holds"], rows)
    else:
        text = _json_text([
            {"n": n, "spt": s, "moment_difference": d, "identity_holds": bool(h)}
            for n, s, d, h in rows])
    _emit(text, _resolve_out(config, "spt_check." + config.fmt))
    print(f"spt identity on 1..{n_max}: {'ok' if ok else 'FAILED'}", file=sys.stderr)
    return 0 if ok else 1


_DISPATCH = {
    "moments": _run_moments,
    "asymptotic": _run_asymptotic,
    "compare": _run_compare,
    "verify": _run_verify,
    "scan": _run_scan,
    "spt-check": _run_spt_check,
}


def run(config: RunConfig) -> int:
    """Validate and dispatch one command; returns the process exit code.

    Invalid input, whether `validate` or the library rejects it, ends with
    exit status 2 and one `error:` line on stderr.
    """
    try:
        config.validate()
        return _DISPATCH[config.command](config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors end like `run()`'s: one `error:` line
    on stderr and exit status 2, with no usage block."""

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
    p.add_argument("--case", default=None,
                   help="one of: " + ", ".join(mockforms.VERIFICATION_CASES))
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol-scale", type=float, default=1.0,
                   help="multiplier on every per-case tolerance")
    p.add_argument("--threads", type=int, default=1,
                   help="upper bound on worker threads")

    p = sub.add_parser("scan", help="exact m_(T-2)^r > m_T^r scan")
    common(p)
    p.add_argument("--n", default="1..1500", help="range lo..hi[:step]")

    p = sub.add_parser("spt-check", help="2 spt(n) = m_1^2(n) - m_3^2(n)")
    common(p, needs_T=False)
    p.add_argument("--n-max", type=int, default=60)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    ns = []
    if getattr(args, "n", None):
        try:
            ns = parse_n_values(args.n)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    config = RunConfig(
        command=args.command,
        T=getattr(args, "T", None),
        r=getattr(args, "r", None),
        ns=ns,
        n_max=getattr(args, "n_max", None),
        case=getattr(args, "case", None),
        trials=getattr(args, "trials", 20),
        seed=getattr(args, "seed", 0),
        tol_scale=getattr(args, "tol_scale", 1.0),
        threads=getattr(args, "threads", 1),
        k_cap=getattr(args, "k_cap", None),
        out=args.out,
        fmt=args.fmt,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
