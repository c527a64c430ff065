"""Benchmark for trank: one workload per run, as a closed loop with one client.

    python3 perfbench/run.py --workload exact|mordell|verify|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each request is an in-process call to
`trank.cli.main([...])` writing to a temporary `--out` file, so a timed
request is the command a user runs without the interpreter's start-up,
which `setup_s` measures on its own.  Rounds of requests repeat until
`--seconds` have passed; every output is checked by `oracles`.  With
`--trace 1` every request is sent twice, untraced and then traced, and
the run reports per-layer metrics instead of end-to-end ones.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import oracles
import workloads
from tracing import Tracer, layer_delta, per_layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "perfbench", "results")
SETUP_SAMPLES = 7


def _trank_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def measure_setup() -> float:
    """Median wall time from interpreter start to a ready `import trank`,
    over fresh interpreters, after one untimed import has written the
    bytecode cache that an installed package would have."""
    cmd = [sys.executable, "-c", "import trank"]
    env = _trank_env()
    subprocess.run(cmd, env=env, check=True, timeout=60)
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def clear_caches() -> None:
    """Empty trank's function caches, as a fresh process would have them."""
    for name, module in list(sys.modules.items()):
        if name == "trank" or name.startswith("trank."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


class Client:
    """Sends requests one after another and checks each output."""

    def __init__(self, cli, tmpdir: str):
        self.cli = cli
        self.tmpdir = tmpdir
        self.latencies = []
        self.ok = 0
        self.failed = 0
        self.problems = []
        self.bytes_out = 0
        self.outputs = {}  # argv label -> bytes of the first output
        self.spans = []  # one dict per request

    def send(self, op: workloads.Op, tracer: Tracer | None = None) -> None:
        path = os.path.join(self.tmpdir, f"out.{op.fmt}")
        if tracer:
            clear_caches()
            tracer.install()
            before = tracer.snapshot()
        status = "ok"
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli.main(op.argv + ["--out", path])
        except Exception as exc:  # a traceback in a real process: the request failed
            rc, status = None, f"{type(exc).__name__}: {exc}"
        finally:
            t1 = time.perf_counter()
            if tracer:
                tracer.uninstall()
        self.latencies.append(t1 - t0)
        if rc != 0 and status == "ok":
            status = f"exit status {rc}"
        if rc is not None and os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            os.remove(path)
            self.bytes_out += len(data)
            first = self.outputs.setdefault(op.label, data)
            if first != data:
                self.problems.append(f"{op.label}: output differs from an earlier identical request")
            if rc == 0:
                self.problems += op.check(data.decode())
        elif rc == 0:
            self.problems.append(f"{op.label}: exit status 0 but no output")
        if status == "ok":
            self.ok += 1
        else:
            self.failed += 1
        span = {"op": op.label, "start": t0, "end": t1, "status": status}
        if tracer:
            span["layers"] = layer_delta(before, tracer.snapshot())
        self.spans.append(span)


def run_loop(rounds, seconds: float, min_rounds: int, plain: Client,
             traced: Client | None = None, tracer: Tracer | None = None) -> None:
    """Whole rounds until `seconds` have passed.  With a tracer, each
    request is sent untraced and then again traced, so that both see the
    machine in the same state and their ratio is the tracing overhead."""
    start = time.perf_counter()
    done = 0
    while done < min_rounds or time.perf_counter() - start < seconds:
        for op in rounds.round():
            plain.send(op)
            if tracer:
                traced.send(op, tracer)
        done += 1


def run_workload(args) -> tuple[dict, list]:
    setup_s = measure_setup() if not args.trace else None
    sys.path.insert(0, SRC)
    import trank.cli as cli

    rng = random.Random(f"oracle|{args.seed}")
    p = oracles.partition_numbers(workloads.P_MAX[args.workload])
    problems = []
    if len(p) > 1:
        problems += oracles.sympy_mismatches(
            p, [len(p) - 1] + [rng.randint(1, len(p) - 1) for _ in range(3)])
    rounds = workloads.WORKLOADS[args.workload](args.seed, p)
    os.makedirs(RESULTS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmpdir:
        plain = Client(cli, tmpdir)
        traced = Client(cli, tmpdir) if args.trace else None
        tracer = Tracer() if args.trace else None
        run_loop(rounds, args.seconds, workloads.MIN_ROUNDS[args.workload],
                 plain, traced, tracer)
    clients = [plain, traced] if args.trace else [plain]
    for c in clients:
        problems += c.problems
    result = {
        "correct": not problems,
        "attempted": sum(c.ok + c.failed for c in clients),
        "failed": sum(c.failed for c in clients),
    }
    if args.trace:
        result["metrics"] = per_layer_metrics(
            tracer, sum(traced.latencies), sum(plain.latencies), traced.bytes_out)
        detail = {"layers": {k: dict(zip(("calls", "inclusive_s", "self_s"), v))
                             for k, v in tracer.layers.items()},
                  "edges": [{"caller": a, "callee": b, "calls": c, "inclusive_s": s}
                            for (a, b), (c, s) in tracer.edges.items()],
                  "counts": tracer.counts, "requests": traced.spans}
        with open(os.path.join(RESULTS, f"trace_{args.workload}_seed{args.seed}.json"),
                  "w") as fh:
            json.dump(detail, fh, indent=1)
    else:
        lat = plain.latencies
        result["metrics"] = {
            "ops_per_s": {"value": plain.ok / sum(lat), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(lat), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    for line in problems[:20]:
        print(f"WRONG: {line}")
    for span in (s for c in clients for s in c.spans if s["status"] != "ok"):
        print(f"FAILED: {span['op']}: {span['status'][:160]}")
    return result, plain.spans


def run_all(args) -> dict:
    """Each workload in a fresh process, one after another."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900)
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
    return results


def report(name: str, result: dict) -> None:
    print(f"[{name}] attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")
    for key, m in result["metrics"].items():
        print(f"[{name}] {key} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trank", "cli.py")):
        print(f"error: no trank sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        results = run_all(args)
        for name, result in results.items():
            report(name, result)
        print(json.dumps(results, sort_keys=True))
        return 0
    result, spans = run_workload(args)
    report(args.workload, result)
    with open(os.path.join(RESULTS, f"{args.workload}_seed{args.seed}_trace{args.trace}.json"),
              "w") as fh:
        json.dump({**result, "requests": spans}, fh, indent=1)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
