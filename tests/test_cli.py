import argparse
import dataclasses
import inspect
import json
from pathlib import Path

import pytest

from balmod import cli, ldpc, partial

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

    @pytest.mark.parametrize("argv, flag", [
        (["encode", "--bits", "1111", "--code", "28,4,7"], "--code"),
        (["encode", "--bits", "1111", "--seed", "5"], "--seed"),
        (["decode", "--bits", "01100011", "--p", "0.3"], "--p"),
        (["decode", "--bits", "01100011", "--ell", "3"], "--ell"),
        (["decode", "--bits", "01100011", "--cands", "2"], "--cands"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_knuth_rejects_ldpc_flags(self, capsys, argv, flag):
        # the Knuth codec reads none of them, so a given one is a mistake
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"balmod: error: {flag} applies only to --scheme ldpc\n"
        assert captured.out == ""

    def test_knuth_passes_shared_config_keys(self, capsys, tmp_path):
        # the config serves every command, so its LDPC keys are not errors here
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"code": [28, 4, 7], "seed": 5, "ell": 3, "c": 2}))
        out = run(capsys, "encode", "--bits", "1111", "--config", str(cfg))
        assert "codeword=01100011" in out
        assert "message=1111" in run(capsys, "decode", "--bits", "01100011",
                                     "--config", str(cfg))

    def test_ldpc_encode_decode(self, capsys):
        msg = "1" * 12
        out = run(capsys, "encode", "--bits", msg, "--scheme", "ldpc",
                  "--code", "28,4,7", "--seed", "1")
        cw = [ln for ln in out.splitlines() if ln.startswith("codeword=")][0].split("=")[1]
        out = run(capsys, "decode", "--bits", cw, "--scheme", "ldpc",
                  "--code", "28,4,7", "--seed", "1", "--p", "0.02")
        assert f"message={msg}" in out

    def test_ldpc_decode_assumes_the_design_crossover(self, capsys, monkeypatch):
        # one constant: the decoder's default crossover, which the CLI and its
        # help take, and the partial-balanced decoder's
        assert partial.DESIGN_P is ldpc.DESIGN_P == 0.02
        assert inspect.signature(ldpc.balanced_decode_bsc).parameters["p"].default \
            is ldpc.DESIGN_P
        monkeypatch.setattr(ldpc, "DESIGN_P", 0.03)
        with pytest.raises(SystemExit):
            cli.main(["decode", "--help"])
        assert "(default 0.03)" in capsys.readouterr().out
        seen, real = [], ldpc.balanced_decode_bsc
        monkeypatch.setattr(ldpc, "balanced_decode_bsc",
                            lambda code, y, **kw: seen.append(kw.get("p")) or real(code, y, **kw))
        x, _ = ldpc.balanced_encode(ldpc.build_gallager(28, 4, 7, 1), [1] * 12)
        for extra in ([], ["--p", "0.1"]):
            out = run(capsys, "decode", "--bits", str(x), "--scheme", "ldpc",
                      "--code", "28,4,7", *extra)
            assert "message=" + "1" * 12 in out
        assert seen == [None, 0.1]

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

    def test_variance_growth_optimum_above_one(self, capsys, tmp_path):
        # the optimal cut passes 1 at sigma = 1, t = 1; this line exited 2
        out_path = tmp_path / "ber.csv"
        run(capsys, "sim", "ber", "--model", "variance_growth", "--sigma", "1",
            "--t-grid", "0.5,1.0", "--cells", "100", "--out", str(out_path))
        rows = [line.split(",") for line in out_path.read_text().splitlines()[3:]]
        analytic = {(x, s): float(v) for x, s, _, v, *_ in rows if s.startswith("analytic")}
        for x in ("0.5", "1.0"):
            assert analytic[x, "analytic_optimal"] < analytic[x, "analytic_balancing"]

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
        ["sim", "ber", "--t-grid", "0.1", "--cells", "-4", "--out", "x.csv"],
        ["sim", "ber", "--t-grid", "0.1", "--cells", "0", "--out", "x.csv"],
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

    def test_unwritable_out(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        argv = ["sim", "ber", "--t-grid", "0.1", "--cells", "100", "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"balmod: error: cannot write {out}: No such file or directory\n"
        assert not out.parent.exists()

    @pytest.mark.parametrize("parent, reason", [("missing", "No such file or directory"),
                                                ("a-file", "Not a directory"),
                                                ("a-dir", "Is a directory")])
    def test_out_checked_before_run(self, capsys, tmp_path, monkeypatch, parent, reason):
        def runner(spec):
            raise AssertionError("the run started before --out was checked")

        monkeypatch.setitem(cli.SIMS, "wer-bsc", (cli.SIMS["wer-bsc"][0], runner))
        (tmp_path / "a-file").write_text("")
        (tmp_path / "a-dir" / "x.csv").mkdir(parents=True)    # --out an existing directory
        out = tmp_path / parent / "x.csv"
        argv = ["sim", "wer-bsc", "--code", "70,4,7", "--trials", "200", "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"balmod: error: cannot write {out}: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a-dir", "a-file"]

    def test_failed_run_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        def runner(spec):
            raise ValueError("the run failed")

        monkeypatch.setitem(cli.SIMS, "ber", (cli.SIMS["ber"][0], runner))
        argv = ["sim", "ber", "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "balmod: error: the run failed\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["mlc", "unbalance", "--word", "0123", "--trace", "1", "--q", "0"],
        ["mlc", "unbalance", "--word", "0123", "--trace", "1", "--q", "-2"],
        ["mlc", "unrank", "--rank", "0", "--q", "0", "--m", "2"],
        ["mlc", "unrank", "--rank", "0", "--q", "-3", "--m", "2"],
        ["mlc", "balance", "--word", "0000", "--q", "1"],
        ["mlc", "rank", "--word", "0101", "--q", "1"],
    ])
    def test_alphabet_below_two(self, capsys, argv):
        # was a ZeroDivisionError traceback, "no prime factor", or an empty word
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "balmod: error: alphabet size must be at least 2\n"

    @pytest.mark.parametrize("action", [["rank"], ["balance", "--q", "2"],
                                        ["unbalance", "--trace", "1", "--q", "2"]])
    def test_bad_mlc_word_named(self, capsys, action):
        with pytest.raises(SystemExit) as exc:
            cli.main(["mlc", *action, "--word", "01x1"])
        assert exc.value.code == 2
        assert "argument --word: invalid digits value: '01x1'" in capsys.readouterr().err

    def test_mlc_unbalance_symbol_outside_alphabet(self, capsys):
        # printed word=2193 and exited 0
        argv = ["mlc", "unbalance", "--word", "0193", "--trace", "1,0,0", "--q", "4"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "balmod: error: symbol 9 outside alphabet of size 4\n"

    @pytest.mark.parametrize("command", ["encode", "decode"])
    @pytest.mark.parametrize("value", ["01x1", "0121", "1-1"])
    def test_bad_bits_named(self, capsys, command, value):
        # read "invalid literal for int() ..." or "bits must be 0 or 1"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--bits", value])
        assert exc.value.code == 2
        assert f"argument --bits: invalid bits value: '{value}'" in capsys.readouterr().err

    def test_ldpc_decode_length_named(self, capsys):
        # was "llr shape (4,) != (280,)"
        assert cli.main(["decode", "--scheme", "ldpc", "--bits", "0101"]) == 2
        assert capsys.readouterr().err == (
            "balmod: error: --bits has 4 bits, the code length n is 280\n")

    def test_bad_threshold_levels_named(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["threshold", "--levels", "0.1,x"])
        assert exc.value.code == 2
        assert "argument --levels: invalid float_list value: '0.1,x'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config, value", [
        (["--sigma", "nan"], None, "nan"),
        (["--sigma", "inf", "--model", "variance_growth"], None, "inf"),
        (["--config", "cfg.json"], {"sigma": float("nan")}, "nan"),
    ], ids=["nan", "inf", "config nan"])
    def test_non_finite_sigma(self, capsys, tmp_path, monkeypatch, argv, config, value):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            # Python's json writes and reads NaN
            (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["sim", "ber", "--t-grid", "0.1", "--cells", "100", *argv, "--out", "x.csv"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"balmod: error: sigma must be positive and finite, got {value}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv, value", [
        (["threshold", "--levels", "0.1,0.2", "--method", "second-order", "--a-const", "nan"],
         "nan"),
        (["sim", "ber", "--t-grid", "0.1", "--cells", "100", "--a-const", "nan",
          "--out", "x.csv"], "nan"),
        (["sim", "ber", "--t-grid", "0.1", "--cells", "100", "--a-const", "inf",
          "--out", "x.csv"], "inf"),
    ], ids=["threshold nan", "sim nan", "sim inf"])
    def test_non_finite_a_const(self, capsys, tmp_path, monkeypatch, argv, value):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"balmod: error: a must be finite, got {value}\n"
        assert not any(tmp_path.iterdir())

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


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


SIM_PARSERS = _subcommands(_subcommands(cli.build_parser())["sim"])
# the sim flags that set no spec field (code sets n, col_weight and row_weight)
CLI_DESTS = {"help", "config", "out", "format", "code"}


class TestParameterNames:
    """A sim flag or config key sets the spec field of its name; the cli
    keeps only names that are fields, so a misspelt one would be dropped."""

    @pytest.mark.parametrize("sim", sorted(cli.SIMS))
    def test_every_sim_flag_sets_a_spec_field(self, sim):
        fields = {f.name for f in dataclasses.fields(cli.SIMS[sim][0])}
        dests = {a.dest for a in SIM_PARSERS[sim]._actions}
        assert dests - CLI_DESTS <= fields
        if "code" in dests:
            assert {"col_weight", "row_weight"} <= fields

    @pytest.mark.parametrize("sim", sorted(cli.SIMS))
    def test_no_flags_build_the_default_spec(self, sim):
        args = cli.build_parser().parse_args(["sim", sim, "--out", "x.csv"])
        assert cli._sim_spec(args) == cli.SIMS[sim][0]()

    @pytest.mark.parametrize("argv, config, expect", [
        (["ber", "--t-grid", "0.1", "--cells", "100"], {"a_const": 0.5},
         ["second_order_a=0.5"]),
        (["wer-bsc", "--p-grid", "0.06", "--trials", "1"],
         {"ell": 1, "c": 2, "code": [28, 4, 7]}, ["n=28", "depth=1", "num_candidates=2"]),
        (["wer-bec", "--n-list", "36", "--trials", "1"], {"code": [0, 3, 6]},
         ["col_weight=3", "row_weight=6"]),
        (["inversion-set", "--n-list", "36", "--p-grid", "0.2", "--trials", "1"],
         {"code": [0, 3, 6]}, ["col_weight=3", "row_weight=6"]),
    ], ids=["ber", "wer-bsc", "wer-bec", "inversion-set"])
    def test_config_key_reaches_its_field(self, capsys, tmp_path, argv, config, expect):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "x.csv"
        run(capsys, "sim", *argv, "--config", str(cfg), "--out", str(out))
        header = out.read_text().splitlines()[1].split()
        assert set(expect) <= set(header)


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
