"""Plant one-line errors in the package and see whether a non-pin test fails.

Each mutant replaces one text, which must occur exactly once, in one file
under `src/trank/`.  For each mutant the script copies `src/`, `tests/`,
`demos/` and `pyproject.toml` to a temporary directory, applies the
mutant there and runs the Tier-1 suite without the hash pins (the
`stdout_bytes`, `breakdown_bytes` and `cusp_bytes` tests, and
`tests/test_benchmark_contract.py`), stopping at the first failure.  A
mutant is caught when a test fails, and survives when all pass.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py lead-1.01  # the named mutants only

A surviving mutant takes about a minute on 2 cores.  The exit status is
1 when a mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# name -> (file under src/trank, text, replacement)
MUTANTS = {
    "lead-1.01": ("asymptotics.py", "lead = 2.0 * math.pi * kv / k\n",
                  "lead = 2.0 * math.pi * kv / k * 1.01\n"),
    "lead-1.5": ("asymptotics.py", "lead = 2.0 * math.pi * kv / k\n",
                 "lead = 2.0 * math.pi * kv / k * 1.5\n"),
    "gate-exponent-0.76": ("asymptotics.py", "gate ** (0.75 - (a + c) / 2.0)",
                           "gate ** (0.76 - (a + c) / 2.0)"),
    "mu-k2-1e-6": ("asymptotics.py", "term = (2.0 * math.pi * kv / k\n",
                   "term = (2.0 * math.pi * kv / k * (1.0 + 1e-6 * (k >= 2))\n"),
    "gate-threshold-0.02": ("asymptotics.py", "if gate > 0]", "if gate > 0.02]"),
    "gate-threshold-0.04": ("asymptotics.py", "if gate > 0]", "if gate > 0.04]"),
    "drop-last-l": ("asymptotics.py", "for l, kv in enumerate(values):",
                    "for l, kv in enumerate(values[:-1]):"),
    "doubling-1e-2": ("specfun.py", "np.maximum(1e-9 * np.abs(total)",
                      "np.maximum(1e-2 * np.abs(total)"),
    "k-cap-half": ("asymptotics.py", "else isqrt(self.n)\n", "else isqrt(self.n // 4)\n"),
    "endpoint-exponent": ("specfun.py", "half_exp = (0.5 - s) / 2.0\n",
                          "half_exp = (0.5 - s) / 2.0 + 1e-6\n"),
}

PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
          "-k", "not (stdout_bytes or breakdown_bytes or cusp_bytes)",
          "--ignore", "tests/test_benchmark_contract.py"]


def plant(root: Path, name: str) -> None:
    """Apply mutant `name` to the copy of the package under `root`."""
    filename, text, replacement = MUTANTS[name]
    path = root / "src" / "trank" / filename
    source = path.read_text()
    if source.count(text) != 1:
        raise SystemExit(f"{name}: {text!r} occurs {source.count(text)} times in "
                         f"{filename}, not once")
    path.write_text(source.replace(text, replacement))


def run(name: str) -> str | None:
    """The first failing test under mutant `name`, or None if all pass."""
    with tempfile.TemporaryDirectory(prefix="trank-mutant-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests", "demos"):
            shutil.copytree(REPO / part, root / part, ignore=ignore)
        shutil.copy(REPO / "pyproject.toml", root)
        plant(root, name)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONWARNINGS="error",
                   PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(PYTEST, cwd=root, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return None
    for line in done.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0].split(" ", 1)[1]
    return f"pytest exit status {done.returncode}"


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        raise SystemExit(f"unknown mutants {unknown}; choose from {list(MUTANTS)}")
    survived = 0
    for name in names:
        failing = run(name)
        survived += failing is None
        print(f"{name:20} {'survived' if failing is None else 'caught by ' + failing}",
              flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
