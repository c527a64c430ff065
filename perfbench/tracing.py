"""Per-layer tracing from outside the program.

`Tracer.install` replaces each listed public function of trank with a
timing wrapper, in its defining module and in every trank module that
imported it by name, and `uninstall` puts the originals back.  Spans are
aggregated in memory as they close: per function the call count, the
inclusive time and the self time (inclusive time minus the time of
wrapped calls made inside it), and per (caller, callee) pair the calls
and time, which is the call tree one level at a time.  Inner functions
run hundreds of thousands of times per request, so spans are folded into
these totals instead of being stored one by one.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

from oracles import VERIFY_CASES

# (module, function) pairs, wrapped in the traced run only.
TARGETS = (
    ("qseries", "euler_product"),
    ("qseries", "partition_series"),
    ("qseries", "moment_table"),
    ("units", "kloosterman_partial"),
    ("units", "kloosterman_sum"),
    ("units", "chi_multiplier"),
    ("specfun", "bessel_integral"),
    ("specfun", "bessel_i"),
    ("specfun", "mordell_h"),
    ("mockforms", "verify_transformation"),
    ("asymptotics", "theorem_a_main"),
    ("asymptotics", "garvan_scan"),
    ("cli", "main"),
)


class Tracer:
    def __init__(self):
        self.stack = []  # one [name, child_time] frame per open span
        self.layers = {}  # name -> [calls, inclusive_s, self_s]
        self.edges = {}  # (caller, callee) -> [calls, inclusive_s]
        self.counts = {}  # named work counters
        self._patched = []  # (module, attribute, original)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def calls(self, name: str) -> int:
        return self.layers.get(name, [0])[0]

    def wrap(self, name: str, fn, before=None, after=None):
        """`before()` runs at entry and its value goes to
        `after(result, self_s, state)`, which runs only when the call
        returns."""
        stack, layers, edges = self.stack, self.layers, self.edges

        def wrapper(*args, **kwargs):
            state = before() if before else None
            frame = [name, 0.0]
            caller = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                own = dur - frame[1]
                agg = layers.setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += dur
                agg[2] += own
                edge = edges.setdefault((caller, name), [0, 0.0])
                edge[0] += 1
                edge[1] += dur
            if after:
                after(result, own, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self):
        def moment_table(result, own, state):
            self.add("qseries.moment_table.coeffs", len(result.values))

        def kloosterman_partial(result, own, state):
            self.add("units.kloosterman_partial.terms", result.terms)
            self.add("units.kloosterman_partial.h_scanned", result.k)
            self.add("units.kloosterman_partial.empty", 1 if result.terms == 0 else 0)

        def bessel_i(result, own, state):
            self.add("specfun.bessel_i.points", getattr(result, "size", 1))

        def verify(result, own, state):
            self.add("mockforms.verify_transformation.trials", result.trials)
            self.add(f"mockforms.verify.{result.case}.self_s", own)

        def theorem_a_before():
            return self.calls("specfun.bessel_integral")

        def theorem_a(result, own, state):
            self.add("asymptotics.theorem_a_main.mordell_terms",
                     len(result.mordell_contributions))
            self.add("asymptotics.theorem_a_main.dropped_terms", result.dropped_terms)
            self.add("asymptotics.theorem_a_main.integrals",
                     self.calls("specfun.bessel_integral") - state)

        return {
            "qseries.moment_table": (None, moment_table),
            "units.kloosterman_partial": (None, kloosterman_partial),
            "specfun.bessel_i": (None, bessel_i),
            "mockforms.verify_transformation": (None, verify),
            "asymptotics.theorem_a_main": (theorem_a_before, theorem_a),
        }

    def install(self) -> None:
        hooks = self._hooks()
        trank_modules = [m for name, m in list(sys.modules.items())
                         if name == "trank" or name.startswith("trank.")]
        for mod_name, fn_name in TARGETS:
            name = f"{mod_name}.{fn_name}"
            original = getattr(importlib.import_module(f"trank.{mod_name}"), fn_name)
            before, after = hooks.get(name, (None, None))
            wrapped = self.wrap(name, original, before, after)
            for module in trank_modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Copy of the per-function totals, for per-request differences."""
        return {name: list(v) for name, v in self.layers.items()}


def layer_delta(before: dict, after: dict) -> dict:
    out = {}
    for name, (calls, incl, own) in after.items():
        c0, i0, s0 = before.get(name, (0, 0.0, 0.0))
        if calls != c0:
            out[name] = {"calls": calls - c0, "inclusive_s": incl - i0, "self_s": own - s0}
    return out


def per_layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float,
                      bytes_out: int) -> dict:
    """The per-layer metrics BENCHMARK.json lists, from one traced run."""
    layers, counts = tracer.layers, tracer.counts

    def self_s(name):
        return layers.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    mt_incl = layers.get("qseries.moment_table", [0, 0.0, 0.0])[1]
    kp_calls = tracer.calls("units.kloosterman_partial")
    terms = counts.get("units.kloosterman_partial.terms", 0)
    mordell_terms = counts.get("asymptotics.theorem_a_main.mordell_terms", 0)
    m = {
        "qseries.euler_product.self_s": (self_s("qseries.euler_product"), "s"),
        "qseries.euler_product.calls": (tracer.calls("qseries.euler_product"), "count"),
        "qseries.partition_series.self_s": (self_s("qseries.partition_series"), "s"),
        "qseries.moment_table.self_s": (self_s("qseries.moment_table"), "s"),
        "qseries.moment_table.coeffs": (counts.get("qseries.moment_table.coeffs", 0), "count"),
        "qseries.coeffs_per_s": (
            ratio(counts.get("qseries.moment_table.coeffs", 0), mt_incl), "1/s"),
        "units.kloosterman_partial.self_s": (self_s("units.kloosterman_partial"), "s"),
        "units.kloosterman_partial.calls": (kp_calls, "count"),
        "units.kloosterman_partial.terms": (terms, "count"),
        "units.kloosterman_partial.h_scanned": (
            counts.get("units.kloosterman_partial.h_scanned", 0), "count"),
        "units.kloosterman_partial.useful_ratio": (
            ratio(terms, counts.get("units.kloosterman_partial.h_scanned", 0)), "ratio"),
        "units.kloosterman_partial.empty_ratio": (
            ratio(counts.get("units.kloosterman_partial.empty", 0), kp_calls), "ratio"),
        "units.kloosterman_sum.self_s": (self_s("units.kloosterman_sum"), "s"),
        "units.kloosterman_sum.calls": (tracer.calls("units.kloosterman_sum"), "count"),
        "units.chi_multiplier.self_s": (self_s("units.chi_multiplier"), "s"),
        "units.chi_multiplier.calls": (tracer.calls("units.chi_multiplier"), "count"),
        "specfun.bessel_integral.self_s": (self_s("specfun.bessel_integral"), "s"),
        "specfun.bessel_integral.calls": (tracer.calls("specfun.bessel_integral"), "count"),
        "specfun.bessel_i.self_s": (self_s("specfun.bessel_i"), "s"),
        "specfun.bessel_i.calls": (tracer.calls("specfun.bessel_i"), "count"),
        "specfun.bessel_i.points": (counts.get("specfun.bessel_i.points", 0), "count"),
        "specfun.mordell_h.self_s": (self_s("specfun.mordell_h"), "s"),
        "specfun.mordell_h.calls": (tracer.calls("specfun.mordell_h"), "count"),
        "asymptotics.theorem_a_main.self_s": (self_s("asymptotics.theorem_a_main"), "s"),
        "asymptotics.theorem_a_main.calls": (tracer.calls("asymptotics.theorem_a_main"), "count"),
        "asymptotics.theorem_a_main.mordell_terms": (mordell_terms, "count"),
        "asymptotics.theorem_a_main.dropped_terms": (
            counts.get("asymptotics.theorem_a_main.dropped_terms", 0), "count"),
        "asymptotics.integral_reuse": (
            1.0 - ratio(counts.get("asymptotics.theorem_a_main.integrals", 0), mordell_terms)
            if mordell_terms else 0.0, "ratio"),
        "asymptotics.garvan_scan.self_s": (self_s("asymptotics.garvan_scan"), "s"),
        "mockforms.verify_transformation.self_s": (
            self_s("mockforms.verify_transformation"), "s"),
        "mockforms.verify_transformation.trials": (
            counts.get("mockforms.verify_transformation.trials", 0), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.bytes_out": (bytes_out, "B"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
    }
    for case in VERIFY_CASES:
        key = f"mockforms.verify.{case}.self_s"
        m[key] = (counts.get(key, 0.0), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
