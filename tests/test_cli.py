import json

import pytest

from trank.cli import main, parse_n_values
from trank.qseries import moment_table, spt_oracle


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
        out = tmp_path / "t.json"
        assert main(["verify", "--case", "R_props", "--trials", "6",
                     "--threads", "3", "--out", str(out)]) == 0


class TestCompareScanSpt:
    def test_compare_csv(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["compare", "--T", "1", "--r", "2", "--n", "40,80,160",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "T,r,n,exact,thmA_main,thmB_leading,rel_err_A,rel_err_B"
        rel_b = [float(line.split(",")[7]) for line in lines[1:]]
        assert rel_b[0] > rel_b[1] > rel_b[2]

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
