import json
from pathlib import Path

import pytest

from balmod import cli

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv) -> str:
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


class TestCodecCommands:
    def test_knuth_encode_decode(self, capsys):
        out = run(capsys, "encode", "--bits", "1111")
        codeword = [ln for ln in out.splitlines() if ln.startswith("codeword=")][0]
        bits = codeword.split("=")[1]
        out = run(capsys, "decode", "--bits", bits)
        assert "message=1111" in out

    def test_ldpc_encode_decode(self, capsys):
        msg = "1" * 12
        out = run(capsys, "encode", "--bits", msg, "--scheme", "ldpc",
                  "--code", "28,4,7", "--seed", "1")
        cw = [ln for ln in out.splitlines() if ln.startswith("codeword=")][0].split("=")[1]
        out = run(capsys, "decode", "--bits", cw, "--scheme", "ldpc",
                  "--code", "28,4,7", "--seed", "1", "--p", "0.02")
        assert f"message={msg}" in out

    def test_threshold_methods(self, capsys):
        out = run(capsys, "threshold", "--levels", "0.1,0.9,0.2,0.8")
        assert "threshold=0.5" in out and "ones=2/4" in out
        out = run(capsys, "threshold", "--levels", "0.1,0.1,0.1,0.9",
                  "--method", "mean")
        assert "ones=" in out

    def test_mlc_round_trip(self, capsys):
        out = run(capsys, "mlc", "rank", "--word", "101202102")
        assert "rank=658" in out
        out = run(capsys, "mlc", "unrank", "--rank", "658", "--q", "3", "--m", "3")
        assert "word=101202102" in out

    def test_mlc_balance_unbalance(self, capsys):
        out = run(capsys, "mlc", "balance", "--word", "0110230210110003", "--q", "4")
        assert "word=2332231210110003" in out
        assert "trace=4,1,0" in out
        out = run(capsys, "mlc", "unbalance", "--word", "2332231210110003",
                  "--trace", "4,1,0", "--q", "4")
        assert "word=0110230210110003" in out


class TestSimCommands:
    def test_ber_csv(self, capsys, tmp_path):
        out_path = tmp_path / "ber.csv"
        run(capsys, "sim", "ber", "--t-grid", "0,0.2", "--cells", "1000",
            "--seed", "3", "--out", str(out_path))
        text = out_path.read_text()
        assert text.splitlines()[2] == "x,strategy,metric,value,stderr,trials,seed"

    def test_ber_fixed_seed_golden(self, capsys, tmp_path):
        # the fixed-seed CSV is the behaviour contract: a change to the
        # threshold code must reproduce these bytes
        golden = GOLDEN / "sim_ber_cells2000_trials2_seed4.csv"
        out_path = tmp_path / "ber.csv"
        run(capsys, "sim", "ber", "--cells", "2000", "--trials", "2",
            "--seed", "4", "--out", str(out_path))
        assert out_path.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("golden, argv", [
        ("sim_wer_bec_n64-128_trials60_seed5",
         "wer-bec --n-list 64,128 --trials 60 --seed 5 --p 0.45 --budget 8"),
        ("sim_inversion_set_n64-128_trials40_seed2",
         "inversion-set --n-list 64,128 --trials 40 --seed 2"),
        ("sim_wer_bsc_code70_trials150_seed4",
         "wer-bsc --code 70,4,7 --p-grid 0.04,0.08 --trials 150 --seed 4"),
        ("sim_wer_bsc_code28_trials30_seed1_exhaustive",
         "wer-bsc --code 28,4,7 --p-grid 0.06 --trials 30 --seed 1 --exhaustive"),
    ])
    def test_sim_fixed_seed_golden(self, capsys, tmp_path, golden, argv):
        # the fixed-seed CSV is the behaviour contract: a refactor must
        # reproduce these bytes
        out_path = tmp_path / "out.csv"
        run(capsys, "sim", *argv.split(), "--out", str(out_path))
        assert out_path.read_bytes() == (GOLDEN / f"{golden}.csv").read_bytes()

    def test_svg_output(self, capsys, tmp_path):
        out_path = tmp_path / "ber.svg"
        run(capsys, "sim", "ber", "--t-grid", "0,0.2", "--cells", "1000",
            "--seed", "3", "--out", str(out_path), "--format", "svg")
        assert out_path.read_text().startswith("<svg")

    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma": 0.15, "trials": 2, "seed": 21}))
        out_path = tmp_path / "ber.csv"
        run(capsys, "sim", "ber", "--t-grid", "0.1", "--cells", "500",
            "--config", str(cfg), "--out", str(out_path))
        header = out_path.read_text().splitlines()[1]
        assert "sigma=0.15" in header and "trials=2" in header and "seed=21" in header

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 21}))
        out_path = tmp_path / "ber.csv"
        run(capsys, "sim", "ber", "--t-grid", "0.1", "--cells", "500",
            "--config", str(cfg), "--seed", "99", "--out", str(out_path))
        assert "seed=99" in out_path.read_text().splitlines()[1]

    def test_missing_out_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["sim", "ber", "--t-grid", "0.1", "--cells", "100"])

    @pytest.mark.parametrize("argv, flag", [
        (command, flag)
        for command in (["encode", "--bits", "1111"], ["decode", "--bits", "1111"],
                        ["threshold", "--levels", "0.1,0.9"])
        for flag in (["--out", "x.csv"], ["--trials", "3"], ["--format", "svg"])
    ] + [(["threshold", "--levels", "0.1,0.9"], ["--seed", "1"])],
        ids=lambda v: " ".join(v))
    def test_codec_commands_reject_sim_flags(self, capsys, tmp_path, monkeypatch,
                                             argv, flag):
        # only sim runs write files or count trials, and a threshold draws nothing
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestErrors:
    @pytest.mark.parametrize("argv", [
        ["encode", "--bits", "111"],
        ["sim", "ber", "--t-grid", "0.1", "--cells", "11", "--out", "x.csv"],
    ])
    def test_value_error_is_one_line_exit_2(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("balmod: error: ") and "even" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv, expect", [
        (["decode", "--bits", "111"], "no Knuth codeword has total length 3"),
        (["sim", "wer-bsc", "--code", "28,4,7", "--trials", "1", "--max-iter", "0",
          "--out", "x.csv"], "max_iter must be at least 1, got 0"),
        (["sim", "wer-bsc", "--code", "28,4", "--trials", "1", "--out", "x.csv"],
         "code must be three integers n,a,b"),
    ])
    def test_bad_argument(self, capsys, tmp_path, monkeypatch, argv, expect):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("balmod: error: ") and expect in err
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_negative_bec_budget(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["sim", "wer-bec", "--budget", "-3", "--trials", "3", "--out", "x.csv"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("balmod: error: ") and "budget -3" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("age", ["nan", "inf", "-inf"])
    def test_non_finite_age(self, capsys, tmp_path, monkeypatch, age):
        monkeypatch.chdir(tmp_path)
        argv = ["sim", "ber", "--cells", "100", "--t-grid", f"0.1,{age}", "--out", "x.csv"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("balmod: error: ") and f"age t must be finite, got {age}" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv, config, expect", [
        (["sim", "ber", "--cells", "100", "--seed", "-1", "--out", "x.csv"], None,
         "--seed must be a nonnegative integer, got -1"),
        *[(["sim", sim, "--trials", "1", "--code-seed", "-5", "--out", "x.csv"], None,
           "--code-seed must be a nonnegative integer, got -5")
          for sim in ("wer-bsc", "wer-bec", "inversion-set")],
        (["encode", "--bits", "1" * 12, "--scheme", "ldpc", "--code", "28,4,7",
          "--seed", "-3"], None, "--seed must be a nonnegative integer, got -3"),
        (["sim", "ber", "--cells", "100", "--config", "cfg.json", "--out", "x.csv"],
         {"seed": -1}, "config cfg.json: 'seed' must be a nonnegative integer, got -1"),
    ], ids=["seed", "wer-bsc code-seed", "wer-bec code-seed", "inversion-set code-seed",
            "encode seed", "config seed"])
    def test_negative_seed(self, capsys, tmp_path, monkeypatch, argv, config, expect):
        # numpy's own error names neither the flag nor the value
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("balmod: error: ") and expect in err
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("sim, trials", [
        ("ber", "0"), ("wer-bec", "0"), ("wer-bsc", "0"), ("inversion-set", "0"),
        ("wer-bec", "-2"), ("wer-bsc", "-2"), ("inversion-set", "-2"),
    ])
    def test_bad_trial_count(self, capsys, tmp_path, monkeypatch, sim, trials):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["sim", sim, "--trials", trials, "--out", "x.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("balmod: error: ") and f"trials={trials}" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()


class TestConfigErrors:
    def sim(self, config: str) -> list[str]:
        return ["sim", "ber", "--t-grid", "0.1", "--cells", "100",
                "--config", config, "--out", "x.csv"]

    def error_of(self, capsys, argv) -> str:
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("balmod: error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("text, expect", [
        (json.dumps({"trails": 3}), "unknown key(s) 'trails'"),
        (json.dumps({"seed": 3, "sigma": 0.1, "zz": 1, "aa": 2}), "'aa', 'zz'"),
        (json.dumps([["seed", 3]]), "JSON object"),
        (json.dumps(3), "JSON object"),
        ("{seed: 3", "not valid JSON"),
    ])
    def test_bad_config(self, capsys, tmp_path, monkeypatch, text, expect):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(text)
        assert expect in self.error_of(capsys, self.sim("cfg.json"))
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("experiment, cfg, expect", [
        (["wer-bsc", "--trials", "1"], {"code": 5}, "code must be three integers n,a,b, got 5"),
        (["wer-bsc", "--trials", "1"], {"code": [28, 4]},
         "code must be three integers n,a,b, got [28, 4]"),
        (["ber", "--t-grid", "0.1", "--cells", "100"], {"sigma": None},
         "'sigma' must be a number, got null"),
        (["ber", "--t-grid", "0.1", "--cells", "100"], {"trials": [3]},
         "'trials' must be an integer, got [3]"),
        (["ber", "--t-grid", "0.1", "--cells", "100"], {"trials": 2.5},
         "'trials' must be an integer, got 2.5"),
        (["ber", "--t-grid", "0.1", "--cells", "100"], {"seed": True},
         "'seed' must be an integer, got true"),
    ])
    def test_wrong_value_type(self, capsys, tmp_path, monkeypatch, experiment, cfg, expect):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv = ["sim", *experiment, "--config", "cfg.json", "--out", "x.csv"]
        assert f"config cfg.json: {expect}" in self.error_of(capsys, argv)
        assert not (tmp_path / "x.csv").exists()

    def test_missing_config(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        err = self.error_of(capsys, self.sim("nope.json"))
        assert "cannot read config nope.json" in err

    def test_unreadable_config(self, capsys, tmp_path, monkeypatch):
        # a directory cannot be read as a file, even by root
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").mkdir()
        assert "cannot read config cfg.json" in self.error_of(capsys, self.sim("cfg.json"))

    def test_every_known_key_accepted(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"sigma": 0.2, "code": [28, 4, 7], "ell": 2, "c": 4, "eps": 1e-9,
             "a_const": 0.0, "trials": 1, "seed": 5}))
        run(capsys, *self.sim("cfg.json"))
        assert (tmp_path / "x.csv").exists()
