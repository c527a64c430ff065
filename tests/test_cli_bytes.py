"""The exact stdout bytes and exit status of every subcommand.

Each hash was recorded from the command's output before a refactor of
the code behind it, so refactors keep every output byte.  A second group checks that invalid input, whether the
argument parser or the library rejects it, ends with exit status 2 and a
single `error:` line on stderr, never a usage block or a traceback.
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
        "4e2f128efe4fd6d68c5985ec0b51b52ebc1b93a9814a00ee5677a893401370b3",
    "asymptotic --T 5 --r 2 --n 60,90 --format json":
        "f5826c3060ddb79efb363fbf4da99ffb149aefd618565c734ede48048f9b5758",
    "compare --T 3 --r 2 --n 50,100 --format csv":
        "808b6da022373e3c3c334c0065f333943b1384e4620ac10925dce088afcfd0d5",
    "compare --T 3 --r 2 --n 50,100 --format json":
        "2b59f59d2b792e78f361bb53e6bd5a32030fed8e765945c031806c7eaae56f47",
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
        "087d8533748d74e3663916feebfcdc7071156bb76ff54728d30632d434e3fe8d",
}

INVALID = [
    "asymptotic --T 25 --r 2 --n 100",
    "asymptotic --T 5 --r 2 --n 10 --k-cap 0",
    "asymptotic --T 5 --r 2 --n 0",
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
