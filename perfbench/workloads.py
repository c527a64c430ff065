"""The three workloads, as rounds of `trank` commands drawn from a seed.

A run repeats whole rounds, so every run attempts the same operations in
the same proportions whatever its seed and length.  Within a round the
seed draws sizes inside fixed strata, so that a round costs about the
same on every seed and the throughput of a whole run stays put.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

import oracles

ODD_T = tuple(range(1, 24, 2))

# exact: one request per n_max stratum in each round; each request gets an
# n_max not used before in the run, so each builds its own Euler product,
# as a fresh `trank` process does.
EXACT_N_LO, EXACT_N_HI = 2000, 5600
EXACT_STRATA = 7

# mordell: the four queries that fail on every run (`asymptotics._realize`
# rejects a Mordell part whose imaginary residue exceeds 1e-8 of its own
# largely cancelled real value), and four successful queries per round,
# one T from each group.  A group joins T values of similar cost at
# k_cap = 14, so that a round's cost hardly depends on the seed.
MORDELL_FAILING = ((5, 4, 200), (5, 4, 250), (5, 4, 300), (7, 4, 200))
MORDELL_GROUPS = ((5, 7), (9, 11), (13, 15), (17, 19, 21, 23))
MORDELL_N = (200, 207, 214, 221)

# verify: the fixed list of `trank verify` seeds, all twelve suites each.
# Seed 10 fails on every run: prop_4_2 trial 6 (T=13, h=3, k=4, t=4) has
# relative error 3.9e-7 against the default tolerance 1e-7.
VERIFY_SEEDS = tuple(range(1, 13))
VERIFY_TRIALS = (30, 35, 40, 45)


@dataclass
class Op:
    """One `trank` command; `check(text)` lists what is wrong with its output."""

    argv: list
    fmt: str
    check: Callable[[str], list]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _sample(rng: random.Random, n_max: int) -> list[int]:
    """Four random n in 1..n_max, and n_max."""
    return [rng.randint(1, n_max) for _ in range(4)] + [n_max]


class ExactRounds:
    def __init__(self, seed: int, p: list):
        self.rng = random.Random(f"exact|{seed}")
        self.p = p
        self.used = set()
        self.rounds = 0

    def _n(self, stratum: int) -> int:
        width = (EXACT_N_HI - EXACT_N_LO) // EXACT_STRATA
        while True:
            n = self.rng.randrange(EXACT_N_LO + stratum * width,
                                   EXACT_N_LO + (stratum + 1) * width)
            if n not in self.used:
                self.used.add(n)
                return n

    def _moments(self, T, r, fmt, n_max):
        check = functools.partial(oracles.check_moments, fmt=fmt, T=T, r=r, n_max=n_max,
                                  p=self.p, sample_ns=_sample(self.rng, n_max))
        return Op(["moments", "--T", str(T), "--r", str(r), "--n-max", str(n_max),
                   "--format", fmt], fmt, check)

    def _scan(self, n_hi):
        rng = self.rng
        T, r = rng.choice(ODD_T[1:]), rng.choice((2, 4, 6))
        check = functools.partial(oracles.check_scan, T=T, r=r, n_lo=1, n_hi=n_hi,
                                  p=self.p, sample_ns=_sample(rng, n_hi))
        return Op(["scan", "--T", str(T), "--r", str(r), "--n", f"1..{n_hi}"], "csv", check)

    def _compare(self, T, n_hi):
        rng = self.rng
        r = rng.choice((2, 4, 6))
        ns = sorted({n_hi, rng.randrange(n_hi // 2, n_hi), rng.randrange(n_hi // 4, n_hi // 2)})
        check = functools.partial(oracles.check_compare, T=T, r=r, ns=ns, p=self.p)
        return Op(["compare", "--T", str(T), "--r", str(r), "--n", ",".join(map(str, ns))],
                  "csv", check)

    def round(self) -> list[Op]:
        # Round i moves every request kind 3i strata up, the same on every
        # seed, so runs of equal length make the same mix of sizes.
        rng = self.rng
        n = [self._n((kind + 3 * self.rounds) % EXACT_STRATA) for kind in range(EXACT_STRATA)]
        self.rounds += 1
        ops = [
            self._moments(1, 2, "csv", n[0]),  # Dyson's crank identity applies
            self._moments(rng.choice((1, 3)), 0, "json", n[1]),  # row sums are p(n)
            self._moments(rng.choice(ODD_T), rng.choice((0, 2, 4, 6)), "csv", n[2]),
            self._moments(rng.choice(ODD_T), rng.choice((0, 2, 4, 6)), "json", n[3]),
            self._scan(n[4]),
            self._compare(1, n[5]),
            self._compare(3, n[6]),
        ]
        rng.shuffle(ops)
        return ops


class MordellRounds:
    def __init__(self, seed: int, p: list):
        self.rng = random.Random(f"mordell|{seed}")
        self.p = p

    def _asymptotic(self, T, r, n):
        check = functools.partial(oracles.check_asymptotic, T=T, r=r, n=n, p=self.p)
        return Op(["asymptotic", "--T", str(T), "--r", str(r), "--n", str(n)], "csv", check)

    def round(self) -> list[Op]:
        rng = self.rng
        ops = [self._asymptotic(T, r, n) for T, r, n in MORDELL_FAILING]
        ops += [self._asymptotic(rng.choice(group), 2, rng.choice(MORDELL_N))
                for group in MORDELL_GROUPS]
        rng.shuffle(ops)
        return ops


class VerifyRounds:
    """The same round every time, so repeated seeds can be compared byte
    for byte.  The requests are fixed and the seed sets their order: the
    cost of a `trank verify` seed varies fourfold, so drawing seeds or
    trial counts would move the median latency with the seed."""

    def __init__(self, seed: int, p: list):
        rng = random.Random(f"verify|{seed}")
        trials = [VERIFY_TRIALS[i % len(VERIFY_TRIALS)] for i in range(len(VERIFY_SEEDS))]
        self.ops = [
            Op(["verify", "--trials", str(t), "--seed", str(s), "--threads", "1",
                "--format", "json"], "json",
               functools.partial(oracles.check_verify, trials=t, seed=s))
            for s, t in zip(VERIFY_SEEDS, trials)
        ]
        rng.shuffle(self.ops)

    def round(self) -> list[Op]:
        return list(self.ops)


WORKLOADS = {"exact": ExactRounds, "mordell": MordellRounds, "verify": VerifyRounds}
# Rounds a run makes at least: verify needs a second round to see every
# seed repeat.
MIN_ROUNDS = {"exact": 1, "mordell": 1, "verify": 2}
# Largest n whose p(n) a workload's checks need.
P_MAX = {"exact": EXACT_N_HI, "mordell": max(n for _, _, n in MORDELL_FAILING), "verify": 0}
