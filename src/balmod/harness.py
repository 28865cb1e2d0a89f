"""Experiment runners and report emitters.

Every runner takes a frozen spec carrying its parameters, trial count, and
seed, and returns a ResultTable whose rows all record their trial count and
seed lineage.  Per-trial randomness is derived as SeedSequence((seed,
point_index, trial_index)) feeding the Philox generator, so trials are
order-independent and a (spec, seed) pair maps to byte-identical CSV output.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import bec, channel, ldpc, thresholds
from .words import as_bits, as_whole_number, balance

CSV_COLUMNS = ("x", "strategy", "metric", "value", "stderr", "trials", "seed")


@dataclass(frozen=True)
class ResultRow:
    x: float
    strategy: str
    metric: str
    value: float
    stderr: float
    trials: int
    seed: int


@dataclass
class ResultTable:
    rows: list[ResultRow] = field(default_factory=list)
    spec_comments: list[str] = field(default_factory=list)

    def add(self, **kw) -> None:
        self.rows.append(ResultRow(**kw))

    def select(self, strategy: str | None = None, metric: str | None = None) -> list[ResultRow]:
        return [r for r in self.rows
                if (strategy is None or r.strategy == strategy)
                and (metric is None or r.metric == metric)]


def _new_table(kind: str, spec) -> ResultTable:
    """Empty table headed by the spec; every runner rejects trials < 1 here."""
    if spec.trials < 1:
        raise ValueError(f"need at least one trial, got trials={spec.trials}")
    parts = [f"kind={kind}"]
    for f in dataclasses.fields(spec):
        parts.append(f"{f.name}={getattr(spec, f.name)!r}".replace(" ", ""))
    return ResultTable(spec_comments=["balmod result v1", " ".join(parts)])


def emit_csv(table: ResultTable, path) -> None:
    lines = [f"# {c}" for c in table.spec_comments]
    lines.append(",".join(CSV_COLUMNS))
    for r in table.rows:
        lines.append(f"{r.x!r},{r.strategy},{r.metric},{r.value!r},{r.stderr!r},"
                     f"{r.trials},{r.seed}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_csv(path) -> ResultTable:
    table = ResultTable()
    with open(path, "r", encoding="ascii") as fh:
        header_seen = False
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                table.spec_comments.append(line[2:])
                continue
            if not header_seen:
                if line != ",".join(CSV_COLUMNS):
                    raise ValueError(f"unexpected CSV header: {line}")
                header_seen = True
                continue
            x, strategy, metric, value, stderr, trials, seed = line.split(",")
            table.add(x=float(x), strategy=strategy, metric=metric,
                      value=float(value), stderr=float(stderr),
                      trials=int(trials), seed=int(seed))
    return table


def emit_svg(table: ResultTable, path) -> None:
    """Single-file line plot, one polyline per (strategy, metric) series.

    Uses a log10 y-axis when every value is positive and the spread warrants
    it.  No external renderer; the output is a standalone SVG document.
    """
    series: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for r in table.rows:
        series.setdefault((r.strategy, r.metric), []).append((r.x, r.value))
    pts_all = [p for pts in series.values() for p in pts]
    if not pts_all:
        raise ValueError("nothing to plot")
    xs = [p[0] for p in pts_all]
    ys = [p[1] for p in pts_all]
    log_y = min(ys) > 0 and max(ys) / min(ys) > 50
    if log_y:
        ys = [np.log10(y) for y in ys]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    width, height = 640, 420
    ml, mr, mt, mb = 60, 150, 20, 40

    def px(x: float) -> float:
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def py(y: float) -> float:
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#17becf", "#7f7f7f"]
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
           f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>']
    for t in range(5):
        xv = x0 + (x1 - x0) * t / 4
        yv = y0 + (y1 - y0) * t / 4
        label = f"1e{yv:.2f}" if log_y else f"{yv:.4g}"
        out.append(f'<text x="{px(xv):.1f}" y="{height - mb + 16}" font-size="10" '
                   f'text-anchor="middle">{xv:.4g}</text>')
        out.append(f'<text x="{ml - 6}" y="{py(yv):.1f}" font-size="10" '
                   f'text-anchor="end">{label}</text>')
    for idx, (key, pts) in enumerate(sorted(series.items())):
        color = palette[idx % len(palette)]
        pts = sorted(pts)
        coords = " ".join(
            f"{px(x):.2f},{py(np.log10(y) if log_y else y):.2f}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{width - mr + 8}" y="{mt + 14 * (idx + 1)}" font-size="10" '
                   f'fill="{color}">{key[0]}:{key[1]}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(out) + "\n")


def emit(table: ResultTable, path, fmt: str = "csv") -> None:
    if fmt == "csv":
        emit_csv(table, path)
    elif fmt == "svg":
        emit_svg(table, path)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _binom_stderr(p_hat: float, n: int) -> float:
    return float(np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)) if n else 0.0


# ---------------------------------------------------------------------------
# Bit-error-rate curves for the drift models


@dataclass(frozen=True)
class BerCurveSpec:
    model: str = channel.MEAN_DRIFT
    sigma: float = 0.2
    t_grid: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    cells: int = 10_000
    trials: int = 1
    seed: int = 1
    second_order_a: float = 0.0


def run_ber_curve(spec: BerCurveSpec) -> ResultTable:
    """Empirical BER of each threshold strategy per age t, with the model's
    closed-form error rates as overlay rows (trials = 0)."""
    table = _new_table("ber-curve", spec)
    if not (isinstance(spec.cells, (int, np.integer))
            and spec.cells > 0 and spec.cells % 2 == 0):
        raise ValueError(f"cells must be a positive even integer, got cells={spec.cells}")
    model = channel.DriftModel(spec.model, spec.sigma)
    half = spec.cells // 2
    strategies = ("fixed", "balancing", "optimal", "mean", "second_order")
    for t_idx, t in enumerate(spec.t_grid):
        errs = {s: 0 for s in strategies}
        for trial in range(spec.trials):
            rng = channel.make_rng((spec.seed, t_idx, trial))
            bits = np.zeros(spec.cells, dtype=np.uint8)
            bits[rng.permutation(spec.cells)[:half]] = 1
            levels = channel.sample_levels(bits, model, t,
                                           seed=(spec.seed, t_idx, trial, 1)).levels

            vb = thresholds.balancing_threshold_exact(levels).value
            _, opt_counts = thresholds.optimal_threshold_oracle(levels, bits)
            chosen = {
                "fixed": 0.5,
                "balancing": vb,
                "mean": thresholds.relaxed_threshold_mean(levels),
                "second_order": thresholds.relaxed_threshold_second_order(
                    levels, spec.second_order_a),
            }
            for name, v in chosen.items():
                errs[name] += thresholds.error_counts(
                    bits, thresholds.read_with_threshold(levels, v)).total
            errs["optimal"] += opt_counts.total
        denom = spec.cells * spec.trials
        for name in strategies:
            ber = errs[name] / denom
            table.add(x=t, strategy=name, metric="ber", value=ber,
                      stderr=_binom_stderr(ber, denom), trials=spec.trials,
                      seed=spec.seed)
        mt = channel.model_thresholds(model, t)
        for name, v in (("fixed", mt.vf), ("balancing", mt.vb), ("optimal", mt.vo)):
            table.add(x=t, strategy=f"analytic_{name}", metric="ber",
                      value=float(channel.analytic_ber(model, v, t)), stderr=0.0,
                      trials=0, seed=spec.seed)
    return table


# ---------------------------------------------------------------------------
# Erasure-channel word error rates


@dataclass(frozen=True)
class WerBecSpec:
    block_lengths: tuple[int, ...] = (64, 128, 256)
    col_weight: int = 3
    row_weight: int = 4
    erasure_p: float = 0.35
    trials: int = 200
    seed: int = 1
    code_seed: int = 11
    budget: int | None = None   # None: n + 1, complete enumeration

    def __post_init__(self):
        if self.budget is not None:
            budget = as_whole_number(self.budget, "enumeration budget")
            if budget < 0:
                raise ValueError(f"enumeration budget {budget} is negative")
            object.__setattr__(self, "budget", budget)


def _bec_trials(code: ldpc.LdpcCode, p: float, budget: int, point: tuple, trials: int):
    """Trial t of a point, lineage (*point, t): a random message balanced-encoded,
    erased with probability p and decoded; yields (x, i, received y, BecResult)."""
    for trial in range(trials):
        u = channel.make_rng((*point, trial)).integers(0, 2, code.k)
        x, i_true = ldpc.balanced_encode(code, u)
        y = channel.apply_bec(x, p, seed=(*point, trial, 1))
        yield x, i_true, y, bec.bec_decode(code, y, budget=budget)


def _add_mean_residual(table: ResultTable, x: float, strategy: str, residuals, spec) -> None:
    table.add(x=x, strategy=strategy, metric="mean_inversion_set",
              value=float(np.mean(residuals)),
              stderr=float(np.std(residuals) / np.sqrt(spec.trials)),
              trials=spec.trials, seed=spec.seed)


def run_wer_bec(spec: WerBecSpec) -> ResultTable:
    """Balanced (inversion-set) versus genie (known index) peeling per block
    length, plus the mean residual inversion-set size when propagation stops."""
    table = _new_table("wer-bec", spec)
    for n_idx, n in enumerate(spec.block_lengths):
        code = ldpc.build_gallager(n, spec.col_weight, spec.row_weight, spec.code_seed)
        budget = spec.budget if spec.budget is not None else n + 1
        genie_ok = unique_ok = unique_returned = 0
        residuals = []
        for x, i_true, y, res in _bec_trials(code, spec.erasure_p, budget,
                                             (spec.seed, n_idx), spec.trials):
            z_true = as_bits(x).copy()
            z_true[:i_true] ^= 1
            g = bec.genie_peel(code, y, i_true)
            genie_ok += int(g is not None and np.array_equal(g, z_true))
            residuals.append(res.residual_set_size)
            if res.status == bec.UNIQUE:
                unique_returned += 1
                unique_ok += int(np.array_equal(res.z, z_true))
        rows = (
            ("genie", "wer", 1.0 - genie_ok / spec.trials),
            ("balanced", "wer", 1.0 - unique_ok / spec.trials),
            ("balanced", "unique_rate", unique_returned / spec.trials),
            ("genie", "success_rate", genie_ok / spec.trials),
        )
        for strategy, metric, value in rows:
            table.add(x=float(n), strategy=strategy, metric=metric, value=value,
                      stderr=_binom_stderr(value, spec.trials),
                      trials=spec.trials, seed=spec.seed)
        _add_mean_residual(table, float(n), "balanced", residuals, spec)
    return table


# ---------------------------------------------------------------------------
# Symmetric-channel word error rates


@dataclass(frozen=True)
class WerBscSpec:
    n: int = 280
    col_weight: int = 4
    row_weight: int = 7
    p_grid: tuple[float, ...] = (0.05, 0.055, 0.06, 0.065)
    depth: int = 2
    num_candidates: int = 4
    max_iter: int = 50
    trials: int = 2000
    seed: int = 1
    code_seed: int = 1
    include_exhaustive: bool = False


def run_wer_bsc(spec: WerBscSpec) -> ResultTable:
    """Paired word error rates on one BSC noise stream per trial: plain BP on
    the unbalanced codeword, score-guided balanced decoding, and optionally
    the exhaustive all-shifts decoder."""
    table = _new_table("wer-bsc", spec)
    code = ldpc.build_gallager(spec.n, spec.col_weight, spec.row_weight, spec.code_seed)
    for p_idx, p in enumerate(spec.p_grid):
        unbal_err = bal_err = exh_err = 0
        for trial in range(spec.trials):
            rng = channel.make_rng((spec.seed, p_idx, trial))
            u = rng.integers(0, 2, code.k)
            z = ldpc.encode(code, u)
            x, _ = balance(z)
            noise = (channel.make_rng((spec.seed, p_idx, trial, 1)).random(code.n)
                     < p).astype(np.uint8)

            res_u = ldpc.bp_decode(code, ldpc.bsc_llr(z ^ noise, p),
                                   max_iter=spec.max_iter)
            unbal_err += int(not (res_u.satisfied and np.array_equal(res_u.word, z)))

            llr_b = ldpc.bsc_llr(x ^ noise, p)
            res_b = ldpc.balanced_decode(code, llr_b, depth=spec.depth,
                                         num_candidates=spec.num_candidates,
                                         max_iter=spec.max_iter)
            bal_err += int(not (res_b.ok and np.array_equal(res_b.z, z)))

            if spec.include_exhaustive:
                res_e = ldpc.balanced_decode(code, llr_b, depth=spec.depth,
                                             num_candidates=None,
                                             max_iter=spec.max_iter)
                exh_err += int(not (res_e.ok and np.array_equal(res_e.z, z)))
        pairs = [("unbalanced", unbal_err), ("balanced", bal_err)]
        if spec.include_exhaustive:
            pairs.append(("exhaustive", exh_err))
        for strategy, cnt in pairs:
            wer = cnt / spec.trials
            table.add(x=p, strategy=strategy, metric="wer", value=wer,
                      stderr=_binom_stderr(wer, spec.trials),
                      trials=spec.trials, seed=spec.seed)
    return table


# ---------------------------------------------------------------------------
# Inversion-set size sweep


@dataclass(frozen=True)
class InversionSetSpec:
    block_lengths: tuple[int, ...] = (64, 128, 256)
    col_weight: int = 3
    row_weight: int = 4
    p_grid: tuple[float, ...] = (0.15, 0.25, 0.35, 0.45)
    trials: int = 200
    seed: int = 1
    code_seed: int = 11


def run_inversion_set(spec: InversionSetSpec) -> ResultTable:
    """Mean residual inversion-set size after propagation, per erasure rate."""
    table = _new_table("inversion-set", spec)
    for n_idx, n in enumerate(spec.block_lengths):
        code = ldpc.build_gallager(n, spec.col_weight, spec.row_weight, spec.code_seed)
        for p_idx, p in enumerate(spec.p_grid):
            # bec_decode sets the residual size before it enumerates: budget 0
            # skips the enumeration, which this sweep never reads
            residuals = [res.residual_set_size for *_, res in _bec_trials(
                code, p, 0, (spec.seed, n_idx, p_idx), spec.trials)]
            _add_mean_residual(table, p, f"n{n}", residuals, spec)
    return table
