import dataclasses
import re

import numpy as np
import pytest

from balmod import channel, harness
from balmod.harness import (BerCurveSpec, InversionSetSpec, ResultTable,
                            WerBecSpec, WerBscSpec, emit_csv, load_csv,
                            run_ber_curve, run_inversion_set, run_wer_bec,
                            run_wer_bsc)


@pytest.fixture(scope="module")
def ber_table():
    return run_ber_curve(BerCurveSpec(cells=4000, seed=5))


SPECS = (BerCurveSpec, WerBecSpec, WerBscSpec, InversionSetSpec)


class TestSpecWholeNumbers:
    """One rule reads every integer field of the four runner specs."""

    @pytest.mark.parametrize("spec_cls, field", [
        (cls, f.name) for cls in SPECS for f in dataclasses.fields(cls)
        if f.name in ("trials", "seed", "code_seed", "n", "col_weight", "row_weight",
                      "depth", "num_candidates", "max_iter")])
    def test_whole_float_reads_as_int_and_fraction_named(self, spec_cls, field):
        default = getattr(spec_cls(), field)
        spec = spec_cls(**{field: float(default)})
        assert getattr(spec, field) == default and type(getattr(spec, field)) is int
        with pytest.raises(ValueError, match=f"^{field} {default + 0.5} is not an integer$"):
            spec_cls(**{field: default + 0.5})

    @pytest.mark.parametrize("spec_cls", [WerBecSpec, InversionSetSpec])
    def test_block_lengths_read_as_tuple_of_ints(self, spec_cls):
        spec = spec_cls(block_lengths=[32, np.int64(64), 128.0])
        assert spec.block_lengths == (32, 64, 128)
        assert all(type(n) is int for n in spec.block_lengths)
        with pytest.raises(ValueError, match="^block length 64.5 at index 1 is not an integer$"):
            spec_cls(block_lengths=(32, 64.5))

    @pytest.mark.parametrize("spec_cls", SPECS)
    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_at_least_one(self, spec_cls, trials):
        with pytest.raises(ValueError, match=f"^need at least one trial, got trials={trials}$"):
            spec_cls(trials=trials)

    @pytest.mark.parametrize("spec_cls, field", [
        (cls, name) for cls in SPECS for name in ("seed", "code_seed")
        if name in {f.name for f in dataclasses.fields(cls)}])
    def test_negative_seed_named(self, spec_cls, field):
        # numpy's own error names neither the field nor the value
        with pytest.raises(ValueError, match=f"^{field} -1 is negative$"):
            spec_cls(**{field: -1})

    def test_negative_budget_named(self):
        with pytest.raises(ValueError, match="^enumeration budget -2 is negative$"):
            WerBecSpec(budget=-2)
        assert WerBecSpec(budget=None).budget is None

    def test_header_echoes_the_ints(self):
        table = run_wer_bsc(WerBscSpec(n=28.0, depth=2.0, p_grid=(0.05,), trials=2.0))
        header = table.spec_comments[1]
        assert " n=28 " in header and " depth=2 " in header and " trials=2 " in header
        assert table.rows[0].trials == 2


class TestSpecRealsAndFlags:
    """Each spec owns the rules of its real fields, grids, cell count and
    exhaustive flag: a bad value fails when the spec is built, and the CSV
    header reads the same whatever numeric types built the spec."""

    @pytest.mark.parametrize("spec_cls, field", [
        (cls, f.name) for cls in SPECS for f in dataclasses.fields(cls)
        if f.name in ("sigma", "erasure_p", "second_order_a")])
    def test_real_field_stored_as_float_and_non_real_named(self, spec_cls, field):
        for value in (np.float64(0.25), np.float32(0.25), 0.25):
            stored = getattr(spec_cls(**{field: value}), field)
            assert stored == 0.25 and type(stored) is float
        assert type(getattr(spec_cls(**{field: np.int64(1)}), field)) is float
        for value in ("0.2", None, 0.2j):
            with pytest.raises(ValueError, match=f"^{field} {re.escape(repr(value))} "
                                                 "is not a real number$"):
                spec_cls(**{field: value})

    @pytest.mark.parametrize("spec_cls, field", [
        (cls, f.name) for cls in SPECS for f in dataclasses.fields(cls)
        if f.name in ("p_grid", "t_grid")])
    def test_grid_stored_as_tuple_of_floats_and_entry_named(self, spec_cls, field):
        for grid in (np.array([0.05, 0.25]), [np.float64(0.05), 0.25], (0.05, np.float32(0.25))):
            stored = getattr(spec_cls(**{field: grid}), field)
            assert stored == (0.05, 0.25) and all(type(v) is float for v in stored)
        with pytest.raises(ValueError, match=f"^{field} 'x' at index 1 is not a real number$"):
            spec_cls(**{field: [0.1, "x"]})

    def test_header_echoes_the_cli_text(self):
        # the CLI passes Python floats and tuples; numpy values write the same text
        bsc = run_wer_bsc(WerBscSpec(n=28, trials=1, p_grid=np.array([0.05, 0.06])))
        assert " p_grid=(0.05,0.06) " in bsc.spec_comments[1]
        ber = run_ber_curve(BerCurveSpec(cells=20, sigma=np.float64(0.2), t_grid=[0.1]))
        assert " sigma=0.2 t_grid=(0.1,) " in ber.spec_comments[1]

    @pytest.mark.parametrize("cells", [-4, 0, 11, 10.0, True, "10"])
    def test_cells_rule_holds_when_the_spec_is_built(self, cells):
        with pytest.raises(ValueError, match="^cells must be a positive even integer, "
                                             f"got cells={cells}$"):
            BerCurveSpec(cells=cells)

    def test_integer_cells_stored_as_int(self):
        spec = BerCurveSpec(cells=np.int64(4000))
        assert spec.cells == 4000 and type(spec.cells) is int

    @pytest.mark.parametrize("flag", ["no", 0, 1, None, np.True_])
    def test_include_exhaustive_must_be_a_bool(self, flag):
        with pytest.raises(ValueError, match="^include_exhaustive must be True or False, "
                                             f"got {re.escape(repr(flag))}$"):
            WerBscSpec(include_exhaustive=flag)
        assert WerBscSpec(include_exhaustive=True).include_exhaustive is True


class TestCsv:
    def test_round_trip_bytes(self, ber_table, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        emit_csv(ber_table, p1)
        emit_csv(load_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_schema(self, ber_table, tmp_path):
        p = tmp_path / "c.csv"
        emit_csv(ber_table, p)
        lines = p.read_text().splitlines()
        data_header = [ln for ln in lines if not ln.startswith("#")][0]
        assert data_header == "x,strategy,metric,value,stderr,trials,seed"
        assert lines[0].startswith("# balmod result")

    def test_rows_carry_trials_and_seed(self, ber_table):
        for row in ber_table.select(strategy="balancing"):
            assert row.trials >= 1
            assert row.seed == 5


class TestSvg:
    def test_emits_standalone_document(self, ber_table, tmp_path):
        p = tmp_path / "plot.svg"
        harness.emit(ber_table, p, fmt="svg")
        text = p.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text
        assert text.rstrip().endswith("</svg>")


class TestBerCurve:
    def test_balancing_beats_fixed_under_mean_drift(self, ber_table):
        for t in (0.1, 0.2, 0.3, 0.4, 0.5):
            bal = [r for r in ber_table.select("balancing", "ber") if r.x == t][0]
            fix = [r for r in ber_table.select("fixed", "ber") if r.x == t][0]
            assert bal.value <= fix.value

    def test_variance_growth_ordering(self):
        # sigma chosen so the balanced-vs-fixed gap stays open across the
        # whole age grid; at sigma 0.2 the closed forms cross near t = 0.5
        table = run_ber_curve(BerCurveSpec(model=channel.VARIANCE_GROWTH,
                                           sigma=0.1, cells=4000, seed=6))
        for t in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            opt = [r for r in table.select("optimal", "ber") if r.x == t][0]
            bal = [r for r in table.select("balancing", "ber") if r.x == t][0]
            fix = [r for r in table.select("fixed", "ber") if r.x == t][0]
            assert opt.value <= bal.value
            assert bal.value <= fix.value

    def test_analytic_rows_match_formulas_exactly(self, ber_table):
        model = channel.DriftModel(channel.MEAN_DRIFT, 0.2)
        for row in ber_table.select("analytic_balancing", "ber"):
            mt = channel.model_thresholds(model, row.x)
            assert row.value == float(channel.analytic_ber(model, mt.vb, row.x))

    def test_determinism(self, ber_table):
        again = run_ber_curve(BerCurveSpec(cells=4000, seed=5))
        assert again == ber_table


    @pytest.mark.parametrize("cells", [-4, 0, 11, 10.0])
    def test_cells_must_be_positive_even_integer(self, cells):
        with pytest.raises(ValueError, match="cells must be a positive even integer, "
                                             f"got cells={cells}"):
            run_ber_curve(BerCurveSpec(cells=cells, t_grid=(0.1,)))


class TestWerBec:
    def test_zero_erasures_no_errors(self):
        spec = WerBecSpec(block_lengths=(32,), erasure_p=0.0, trials=20, seed=7)
        table = run_wer_bec(spec)
        assert table.select("balanced", "wer")[0].value == 0.0
        assert table.select("genie", "wer")[0].value == 0.0

    def test_reports_inversion_set_size(self):
        spec = WerBecSpec(block_lengths=(32, 64), erasure_p=0.3, trials=30, seed=8)
        table = run_wer_bec(spec)
        sizes = table.select("balanced", "mean_inversion_set")
        assert len(sizes) == 2
        assert all(r.value >= 1.0 for r in sizes)

    @pytest.mark.parametrize("budget", [float("nan"), 2.5, "3"])
    def test_budget_not_whole_rejected(self, budget):
        message = f"^enumeration budget {re.escape(repr(budget))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            WerBecSpec(budget=budget)

    def test_whole_float_budget_reads_as_int(self):
        spec = WerBecSpec(budget=2.0)
        assert spec.budget == 2 and type(spec.budget) is int


class TestWerBsc:
    def test_smoke_and_determinism(self):
        spec = WerBscSpec(p_grid=(0.05,), trials=8, seed=9)
        t1 = run_wer_bsc(spec)
        t2 = run_wer_bsc(spec)
        assert t1 == t2
        assert {r.strategy for r in t1.rows} == {"unbalanced", "balanced"}

    def test_exhaustive_column_present_when_requested(self):
        code_small = WerBscSpec(n=70, p_grid=(0.04,), trials=4, seed=10,
                                include_exhaustive=True)
        table = run_wer_bsc(code_small)
        assert table.select("exhaustive", "wer")


class TestInversionSetSweep:
    def test_shape_and_determinism(self):
        spec = InversionSetSpec(block_lengths=(32,), p_grid=(0.2, 0.4),
                                trials=20, seed=11)
        t1 = run_inversion_set(spec)
        t2 = run_inversion_set(spec)
        assert t1 == t2
        assert len(t1.select(metric="mean_inversion_set")) == 2

    def test_size_grows_with_erasure_rate(self):
        spec = InversionSetSpec(block_lengths=(64,), p_grid=(0.1, 0.45),
                                trials=40, seed=12)
        rows = run_inversion_set(spec).select(metric="mean_inversion_set")
        assert rows[0].value <= rows[1].value
