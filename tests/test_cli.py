import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tomllib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trank.cli import main, parse_n_values
from trank.mockforms import VERIFICATION_CASES
from trank.qseries import moment_table

from helpers import spt_oracle


class TestParsing:
    def test_n_values(self):
        assert parse_n_values("250,500,1000") == [250, 500, 1000]
        assert parse_n_values("1..7:3") == [1, 4, 7]
        assert parse_n_values("3..5") == [3, 4, 5]
        with pytest.raises(ValueError):
            parse_n_values("1..10:0")
        with pytest.raises(ValueError):
            parse_n_values("")

    def test_invalid_config_exits_2(self, capsys):
        assert main(["moments", "--T", "2", "--r", "2", "--n-max", "5"]) == 2
        assert "odd positive" in capsys.readouterr().err
        assert main(["nope"]) == 2
        assert main(["verify", "--case", "bogus"]) == 2
        assert main(["moments", "--T", "3"]) == 2  # missing required args
        assert main(["scan", "--T", "5", "--r", "2", "--n", ""]) == 2


class TestMoments:
    def test_csv_table(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(["moments", "--T", "1", "--r", "2", "--n-max", "20",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "T,r,n,value"
        table = moment_table(1, 2, 20)
        assert lines[5] == f"1,2,4,{table[4]}"
        # cross-check against 2 spt(4) + m_3^2(4)
        assert table[4] == 2 * spt_oracle(4) + moment_table(3, 2, 4)[4]

    def test_json_to_stdout(self, capsys):
        assert main(["moments", "--T", "3", "--r", "0", "--n-max", "4",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[4] == {"T": 3, "r": 0, "n": 4, "value": "5"}


class TestVerify:
    def test_single_case(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["verify", "--case", "theta_elliptic", "--trials", "10",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["case"] == "theta_elliptic"
        assert report["max_rel_err"] <= 1e-12
        assert report["passed"] is True

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["verify", "--case", "eta", "--trials", "8",
                         "--seed", "3", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_tol_scale_can_force_failure(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["verify", "--case", "eta", "--trials", "5", "--seed", "1",
                     "--tol-scale", "1e-12", "--out", str(out)])
        assert code == 1

    def test_threads_flag(self, tmp_path):
        # trials run in one thread; 1 is the only value accepted
        out = tmp_path / "t.json"
        assert main(["verify", "--case", "R_props", "--trials", "6",
                     "--threads", "1", "--out", str(out)]) == 0
        assert main(["verify", "--case", "R_props", "--trials", "6",
                     "--threads", "3", "--out", str(out)]) == 2


def _python(args: list[str], timeout=None) -> subprocess.CompletedProcess:
    """The interpreter on `args` in a fresh process, with src/ on the path."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("TRANK_OUT_DIR", None)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def _run_trank(argv: str, timeout=None) -> subprocess.CompletedProcess:
    """`python -m trank` on `argv` in a fresh process."""
    return _python(["-m", "trank", *argv.split()], timeout)


# `import trank` loads no layer, yet `dir(trank)` lists every public name.
# `from trank import *` resolves them all and so loads every layer: even
# then mpmath waits for the cancelling prop_4_2 trials and numpy.polynomial
# for the first Gauss-Legendre nodes.
_EVERY_LAYER = ("import trank; assert set(trank.__all__) <= set(dir(trank))\n"
                "import trank.cli\nfrom trank import *")


@pytest.mark.parametrize("code, module", [
    pytest.param(_EVERY_LAYER, "mpmath", id="mpmath-every-layer"),
    pytest.param(_EVERY_LAYER, "numpy.polynomial", id="numpy.polynomial-every-layer"),
    pytest.param("import trank", "numpy", id="numpy-import-trank"),
    pytest.param("import trank.qseries", "numpy", id="numpy-import-qseries"),
])
def test_fresh_process_leaves_module_unloaded(code, module):
    proc = _python(["-c", f"{code}\nimport sys\nsys.exit({module!r} in sys.modules)"])
    assert proc.returncode == 0, proc.stderr


def _assert_one_error_line(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_console_script_help(monkeypatch, capsys):
    # the `trank` entry point of pyproject.toml, run as its console script
    # runs it: no arguments, sys.argv holding the command line
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["trank"]
    module, _, name = target.partition(":")
    monkeypatch.setattr(sys, "argv", ["trank", "--help"])
    assert getattr(importlib.import_module(module), name)() == 0
    assert "moments" in capsys.readouterr().out


class TestCompareScanSpt:
    def test_compare_csv(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["compare", "--T", "1", "--r", "2", "--n", "40,80,160",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "T,r,n,exact,thmA_main,thmB_leading,rel_err_A,rel_err_B"
        rel_b = [float(line.split(",")[7]) for line in lines[1:]]
        assert rel_b[0] > rel_b[1] > rel_b[2]

    def test_compare_zero_exact_moment(self, capsys):
        # m_5^2(1) = m_5^2(2) = 0: those rows carry no relative error, an
        # empty CSV field and a JSON null, and the command succeeds
        assert main(["compare", "--T", "5", "--r", "2", "--n", "1,2,3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[3] for line in lines[1:]] == ["0", "0", "2"]
        assert [line.split(",")[6:] for line in lines[1:3]] == [["", ""], ["", ""]]
        assert all(float(field) > 0 for field in lines[3].split(",")[6:])
        assert main(["compare", "--T", "3", "--r", "2", "--n", "1",
                     "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["exact"] == "0"
        assert row["rel_err_A"] is None and row["rel_err_B"] is None

    def test_scan(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["scan", "--T", "3", "--r", "2", "--n", "1..120",
                     "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["n0"] == 1 and payload["violations"] == []

    def test_spt_check(self, tmp_path):
        out = tmp_path / "spt.csv"
        assert main(["spt-check", "--n-max", "25", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,spt,moment_difference,identity_holds"
        assert all(line.endswith(",1") for line in lines[1:])

    def test_spt_check_past_the_oracle(self, capsys):
        # n_max = 200 is out of the brute-force oracle's reach; the series
        # takes a fraction of a second
        start = time.perf_counter()
        assert main(["spt-check", "--n-max", "200"]) == 0
        assert time.perf_counter() - start < 5.0
        captured = capsys.readouterr()
        assert captured.err == "spt identity on 1..200: ok\n"
        assert captured.out.splitlines()[-1].startswith("200,")

    def test_overflowing_asymptotic_exits_2(self):
        # a main term past double range is invalid input: exit 2 and one
        # error line from the process, no traceback, no numpy warning
        _assert_one_error_line(_run_trank("asymptotic --T 1 --r 2 --n 80000"))

    @pytest.mark.parametrize("argv", ["asymptotic --T 1 --r 2 --n 99999999999999999999",
                                      "compare --T 1 --r 2 --n 80000"])
    def test_huge_n_ends_at_once(self, argv):
        # theorem B rejects the n before the main term's k loop (up to
        # sqrt(n)) or the O(n^2) exact table starts
        _assert_one_error_line(_run_trank(argv, timeout=30))

    @pytest.mark.parametrize("argv", [
        pytest.param("--T 23 --r 2 --n 5 --k-cap 100000", id="100000"),
        pytest.param("--T 23 --r 2 --n 5 --k-cap 87814", id="87814"),
        "--T 5 --r 2 --n 3 --k-cap 99999999999999999999"])
    def test_k_cap_past_the_mordell_part_ends_at_once(self, argv):
        # 100000 is past the int64 range of the partial Kloosterman sums
        # (96 T^3 k^2 <= 2^53); 87814 is in range, but its partial sums
        # need a 1.18 TiB array, whose allocation fails at once.  The
        # Mordell part comes first, so both end before the mu part's k loop,
        # and the range is checked before any list of k up to k_cap is built
        _assert_one_error_line(_run_trank(f"asymptotic {argv}", timeout=30))

    def test_asymptotic_command(self, tmp_path):
        out = tmp_path / "a.csv"
        assert main(["asymptotic", "--T", "5", "--r", "2", "--n", "60",
                     "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert header == "T,r,n,thmA_mu,thmA_mordell,thmA_total,thmB_leading"
        fields = row.split(",")
        assert fields[:3] == ["5", "2", "60"]
        assert float(fields[4]) != 0.0  # T = 5 has a Mordell part

    def test_env_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRANK_OUT_DIR", str(tmp_path))
        assert main(["spt-check", "--n-max", "6", "--format", "json"]) == 0
        assert (tmp_path / "spt_check.json").exists()


@pytest.mark.parametrize("argv, out_dir", [
    ("moments --T 1 --r 2 --n-max 5 --out {tmp}/missing/x.csv", None),
    ("moments --T 1 --r 2 --n-max 5 --out {tmp}", None),
    ("spt-check", "{tmp}/missing"),
], ids=["out-in-missing-dir", "out-is-a-dir", "env-dir-missing"])
def test_unwritable_output_exits_2(argv, out_dir, tmp_path, monkeypatch, capsys):
    # an output path that cannot be opened is invalid configuration
    if out_dir:
        monkeypatch.setenv("TRANK_OUT_DIR", out_dir.format(tmp=tmp_path))
    assert main(argv.format(tmp=tmp_path).split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("argv", [
    "asymptotic --T 5 --r 2 --n 10 --k-cap 14",
    "asymptotic --T 3 --r 8 --n 1 --k-cap 40",
    "asymptotic --T 5 --r 8 --n 5 --k-cap 80",
    "asymptotic --T 9 --r 4 --n 30 --k-cap 60",
])
def test_large_k_cap_is_real(argv, capsys):
    # a k_cap past the default reaches k = 2 (mod 4), k >= 14, where the
    # main term has no imaginary residue now that chi has the sign of the
    # eta law there
    assert main(argv.split()) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert all(math.isfinite(float(field)) for field in row.split(",")[3:])


# The CLI grammar with small sizes: per option, valid values and invalid
# ones, drawn one time in four.  Each command draws its own options, each
# left out one time in twenty (so a required one goes missing), and one
# time in ten an option of another command as well.
_VALUES = {
    "--T": (["1", "3", "5", "9", "23"], ["2", "25", "-1", "x"]),
    "--r": (["0", "2", "4", "8"], ["3", "-2"]),
    "--n": (["1", "5", "30", "60", "1,7,20", "1..40:13"],
            ["0", "-3", "5..2", "", "x", "1..10:0"]),
    "--k-cap": (["1", "3", "14"], ["0", "-1"]),
    "--n-max": (["1", "25", "60"], ["0", "-5", "x"]),
    "--format": (["csv", "json"], ["xml"]),
    "--case": (list(VERIFICATION_CASES), ["bogus"]),
    "--trials": (["1", "2"], ["0", "-1"]),
    "--seed": (["0", "1", "10", "-3"], ["x"]),
    "--tol-scale": (["1", "1e-12"], ["0", "nan", "inf"]),
    "--threads": (["1"], ["0", "2"]),
}
_COMMANDS = {
    "moments": ["--T", "--r", "--n-max", "--format"],
    "asymptotic": ["--T", "--r", "--n", "--k-cap", "--format"],
    "compare": ["--T", "--r", "--n", "--format"],
    "verify": ["--case", "--trials", "--seed", "--tol-scale", "--threads", "--format"],
    "scan": ["--T", "--r", "--n", "--format"],
    "spt-check": ["--n-max", "--format"],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    options = [opt for opt in _COMMANDS[command] if draw(st.integers(0, 19)) < 19]
    if draw(st.integers(0, 9)) == 9:
        options.append(draw(st.sampled_from(sorted(_VALUES))))
    argv = [command]
    for opt in options:
        valid, invalid = _VALUES[opt]
        argv += [opt, draw(st.sampled_from(invalid if draw(st.integers(0, 3)) == 3 else valid))]
    return argv


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(_argv())
def test_every_parsed_command_ends_cleanly(argv):
    # exit 0, 1 or 2, exactly one `error:` line on exit 2, no exception
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
