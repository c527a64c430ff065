"""The exact stdout bytes and exit status of every subcommand.

Each hash was recorded from the command's output before a refactor of
the code behind it, so refactors keep every output byte.  A second group checks that invalid input, whether the
argument parser or the library rejects it, ends with exit status 2 and a
single `error:` line on stderr, never a usage block or a traceback.

One hash, `verify --trials 6 --seed 1`, has been re-recorded after
numerical changes that moved some of its `max_rel_err` fields and
nothing else.  The Mordell integral taken on its reduced strip
|Re w| <= 1/2 moved prop_4_2 8.881e-11 -> 6.800e-11 and R_composite
2.635e-15 -> 1.811e-15; AT_decomposition part (b) checking Zwegers'
symmetry mu(u, v) = mu(v, u), in place of a round trip through A / theta,
moved it 7.355e-16 -> 1.075e-15.  The trapezoid step of the Mordell
integral taken from its analyticity strip, in place of an oscillation
rate, moved prop_4_2 6.800e-11 -> 6.735e-11 and R_composite
1.811e-15 -> 1.140e-15, while H still matches 30-digit mpmath to 1e-14
(tests/test_specfun.py).

The four `asymptotic` and `compare` hashes were re-recorded when the
Kloosterman sum K_k(n) became Rademacher's A_k(n) (one inverse
convention, h' = [-h]_k) and the eta multiplier took its Dedekind-sum
form: every k >= 3 term of the main term moved, and the relative error of
`compare --T 3 --r 2` went 2.4e-7 -> 8.2e-9 at n = 50 and
2.5e-9 -> 5.9e-12 at n = 100.
"""

import hashlib

import pytest

from trank.cli import main

BYTES = {
    "moments --T 3 --r 2 --n-max 40 --format csv":
        "76641a26628b55209484d2def010ac3c960f87150b3694dc970835b216e5f6bf",
    "moments --T 3 --r 2 --n-max 40 --format json":
        "bf1b68082ace8278a95526739450f0c5a9bf08e4e28d34d7955f84d4dda08a41",
    "asymptotic --T 5 --r 2 --n 60,90 --format csv":
        "f3f87d69e18a8708847a1d722ca2f3d058149aa89abdd0d53c3791d861a7829f",
    "asymptotic --T 5 --r 2 --n 60,90 --format json":
        "b694eac7df58b668fd5ba89e0b8aca50474d0895cd60806202dd5c3f1e9e3daf",
    "compare --T 3 --r 2 --n 50,100 --format csv":
        "2d093d744b52dce5900a04b6275fc31db2e2666d172e848ad520cc0082e0f676",
    "compare --T 3 --r 2 --n 50,100 --format json":
        "ce5fc7bf6989c4e9ad2fb64b6d5d0715a136784ab2972a561778a42442fb4c16",
    "scan --T 5 --r 2 --n 1..200 --format csv":
        "9c49a4cfcad2a60032e2b645790c5b3679ac5ff8c244ac05a209c7baeae3e2ee",
    "scan --T 5 --r 2 --n 1..200 --format json":
        "76ef47a8397f0af777cf485b63641ea65fd29a8809a5ce1bb09a58c3cdede3f4",
    "spt-check --n-max 25 --format csv":
        "aa8dd6e2dc5f688f9c842fd07b285ca960fe9dd9b74ca71f5b7ac290b7e60116",
    "spt-check --n-max 25 --format json":
        "7bd88c670652b6fdc5c3290b4e1075378c30386b384e52f71a332f1ef7fadc61",
    "verify --case eta --trials 8 --seed 3":
        "552a36886c34c2930299ef2b42fc9b1bc7b983367699250d5a2f5b18956a2055",
    "verify --trials 6 --seed 1":
        "c042158e7eaf3d33b8b090c9ba0c2066e1a0c1d470aa8fdfdd18f4abd31c5702",
    # the benchmark's verify request that holds the cancelling prop_4_2 trial
    "verify --trials 35 --seed 10":
        "cef65ca9adc5b67d2781e10aff69a5692fd69e4316c0c530b6a419d3a5bf8c09",
    # exact tables at the sizes the benchmark's exact workload asks for,
    # recorded while the division by (q)_inf still went through a
    # separate inverse and a packed big-integer product
    "moments --T 23 --r 6 --n-max 3000":
        "38a86e370666d6bd79af1b3de4686da358c9359610265c22129edd0e43c9afb7",
    "moments --T 1 --r 0 --n-max 2500 --format json":
        "351404a9718eda737b011ae7528a892991cc12eb9a827d81411d00826594e068",
    "scan --T 5 --r 4 --n 1..2000":
        "3b1c0b37c43c7b2e0514bd5c6f2254b3e4739b8c4563111cd7aca7083912e2b0",
    "compare --T 3 --r 2 --n 700,1400,2800":
        "e8531ea6ab538e605d0da8415ac078e69af5195aeb866ff1161fbed516c24da2",
}

INVALID = [
    "asymptotic --T 25 --r 2 --n 100",
    "asymptotic --T 5 --r 2 --n 10 --k-cap 0",
    "asymptotic --T 5 --r 2 --n 0",
    # the theorem B leading term past double range: e^(pi sqrt(2n/3))
    # itself, and the product with (24n)^(r/2 - 1)
    "asymptotic --T 1 --r 2 --n 76600",
    "asymptotic --T 1 --r 4 --n 73980",
    "compare --T 3 --r 3 --n 50",
    "moments --T 3 --r 2 --n-max -5",
    "moments --T 2 --r 2 --n-max 5",
    "scan --T 5 --r 3",
    "scan --T 5 --r 2 --n 0..10",
    "scan --T 1 --r 2",
    "spt-check --n-max 0",
    # rejected by the argument parser: a missing required option, an
    # option the command does not have
    "moments --T 3 --r 2",
    "moments --T 3 --r 2 --n-max 5 --threads 2",
    # range checks the argument parser makes through its converters and
    # choices, and an unknown command
    "verify --trials 0",
    "verify --threads 0",
    "verify --tol-scale 0",
    "verify --tol-scale nan",
    "verify --case bogus",
    "verify --format csv",
    "nope",
]


@pytest.fixture(autouse=True)
def _no_out_dir(monkeypatch):
    monkeypatch.delenv("TRANK_OUT_DIR", raising=False)


@pytest.mark.parametrize("argv", sorted(BYTES))
def test_stdout_bytes(argv, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BYTES[argv]


@pytest.mark.parametrize("argv", INVALID)
def test_invalid_input_exits_2(argv, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.mark.parametrize("command", ["moments --T 3 --r 2 --n-max 5",
                                     "spt-check --n-max 5"])
def test_threads_only_on_verify(command, capsys):
    assert main(command.split() + ["--threads", "2"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["moments", "--help"]) == 0
    assert "--n-max" in capsys.readouterr().out
