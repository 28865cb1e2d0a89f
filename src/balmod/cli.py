"""Command-line front end.

Subcommands: encode, decode, threshold, sim {ber, wer-bec, wer-bsc,
inversion-set}, and mlc {rank, unrank, balance, unbalance}.  A JSON config
file can supply model and code parameters (sigma, code = [n, a, b], ell, c,
eps, a_const) and the run's trials and seed; any other key, or a value of the
wrong JSON type, is an error.  Explicit flags win over the config, which wins
over defaults.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import harness, ldpc, mlc, thresholds, words
from .channel import MEAN_DRIFT, VARIANCE_GROWTH


# the JSON type of each config key; "code" is [n, a, b] or the flag's "n,a,b"
CONFIG_TYPES = {"sigma": float, "code": tuple, "ell": int, "c": int, "eps": float,
                "a_const": float, "trials": int, "seed": int}


def _code_triple(raw) -> tuple[int, int, int]:
    """n, a, b from the --code flag's "n,a,b" or the config's [n, a, b]."""
    try:
        parts = [int(v) for v in raw.split(",")] if isinstance(raw, str) else raw
    except ValueError:
        parts = None
    if not (isinstance(parts, list) and len(parts) == 3
            and all(type(v) is int for v in parts)):
        raise ValueError(f"code must be three integers n,a,b, got {json.dumps(raw)}")
    return tuple(parts)


def _check_seed(name: str, seed: int | None) -> None:
    """Reject a negative seed by name; numpy's own error names neither the
    flag nor the value."""
    if seed is not None and seed < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {seed}")


def _config_value(key: str, value):
    kind = CONFIG_TYPES[key]
    if kind is tuple:
        return _code_triple(value)
    # JSON true/false are not numbers; an integer key takes no fraction
    if type(value) is int or (kind is float and type(value) is float):
        if key == "seed":
            _check_seed(repr(key), value)
        return kind(value)
    raise ValueError(f"{key!r} must be {'a number' if kind is float else 'an integer'}, "
                     f"got {json.dumps(value)}")


def _load_config(path: str | None) -> dict:
    """The config's values, each converted to its key's type."""
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must be a JSON object of key/value pairs")
    unknown = sorted(set(cfg) - CONFIG_TYPES.keys())
    if unknown:
        raise ValueError(f"config {path}: unknown key(s) {', '.join(map(repr, unknown))}; "
                         f"known: {', '.join(sorted(CONFIG_TYPES))}")
    try:
        return {key: _config_value(key, value) for key, value in cfg.items()}
    except ValueError as exc:
        raise ValueError(f"config {path}: {exc}") from None


def _pick(args_value, cfg: dict, key: str, default):
    if args_value is not None:
        return args_value
    if key in cfg:
        return cfg[key]
    return default


def _code_from(cfg: dict, args, default=(280, 4, 7)) -> tuple[int, int, int]:
    if args.code is not None:
        return _code_triple(args.code)
    return cfg.get("code", default)


def _bits_arg(s: str) -> words.BitWord:
    return words.BitWord.from_string(s)


def _add_common(p: argparse.ArgumentParser, seed: bool) -> None:
    if seed:
        p.add_argument("--seed", type=int, default=None, help="master seed (u64)")
    p.add_argument("--config", type=str, default=None, help="JSON key/value config")


def _add_sim_common(p: argparse.ArgumentParser) -> None:
    _add_common(p, seed=True)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--out", type=str, required=True, help="output file path")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")


def cmd_encode(args) -> int:
    cfg = _load_config(args.config)
    u = _bits_arg(args.bits)
    if args.scheme == "knuth":
        cw = words.knuth_encode(u)
        print(f"prefix={cw.prefix} payload={cw.payload}")
        print(f"codeword={cw.prefix}{cw.payload}")
    else:
        n, a, b = _code_from(cfg, args)
        code = ldpc.build_gallager(n, a, b, _pick(args.seed, cfg, "seed", 1))
        x, i = ldpc.balanced_encode(code, u.to_array())
        print(f"codeword={x}")
        print(f"inversion_index={i}")
    return 0


def cmd_decode(args) -> int:
    cfg = _load_config(args.config)
    y = _bits_arg(args.bits)
    if args.scheme == "knuth":
        total = len(y)
        k = None
        for cand in range(2, total, 2):
            if cand + words.prefix_length(cand) == total:
                k = cand
                break
        if k is None:
            raise ValueError(f"no Knuth codeword has total length {total}")
        p = total - k
        cw = words.KnuthCodeword(payload=words.BalancedWord(y[p:]),
                                 prefix=words.BalancedWord(y[:p]))
        print(f"message={words.knuth_decode(cw)}")
    else:
        n, a, b = _code_from(cfg, args)
        code = ldpc.build_gallager(n, a, b, _pick(args.seed, cfg, "seed", 1))
        res = ldpc.balanced_decode_bsc(
            code, y, p=args.p,
            depth=_pick(args.ell, cfg, "ell", 2),
            num_candidates=_pick(args.cands, cfg, "c", 4))
        if not res.ok:
            print("decode failure")
            return 1
        print(f"message={''.join(map(str, res.u.tolist()))}")
        print(f"inversion_index={res.i}")
    return 0


def cmd_threshold(args) -> int:
    cfg = _load_config(args.config)
    levels = np.array([float(v) for v in args.levels.split(",")])
    if args.method == "exact":
        res = thresholds.balancing_threshold_exact(levels)
        v, note = res.value, f" exact={res.exact}"
    elif args.method == "bisect":
        eps = _pick(args.eps, cfg, "eps", 1e-9)
        v, note = thresholds.balancing_threshold_bisect(
            levels, args.lo, args.hi, eps), ""
    elif args.method == "mean":
        v, note = thresholds.relaxed_threshold_mean(levels), ""
    else:
        a_const = _pick(args.a_const, cfg, "a_const", 0.0)
        v, note = thresholds.relaxed_threshold_second_order(levels, a_const), ""
    wt = int(np.sum(levels >= v))
    print(f"threshold={v!r} ones={wt}/{levels.size}{note}")
    return 0


def cmd_sim(args) -> int:
    cfg = _load_config(args.config)
    seed = _pick(args.seed, cfg, "seed", 1)
    if args.experiment == "ber":
        spec = harness.BerCurveSpec(
            model=args.model,
            sigma=_pick(args.sigma, cfg, "sigma", 0.2),
            t_grid=tuple(float(t) for t in args.t_grid.split(",")),
            cells=args.cells,
            trials=_pick(args.trials, cfg, "trials", 1),
            seed=seed,
            second_order_a=_pick(args.a_const, cfg, "a_const", 0.0))
        table = harness.run_ber_curve(spec)
    elif args.experiment == "wer-bec":
        n_list = tuple(int(v) for v in args.n_list.split(","))
        _, a, b = _code_from(cfg, args, (0, 3, 4))
        spec = harness.WerBecSpec(
            block_lengths=n_list, col_weight=a, row_weight=b,
            erasure_p=args.p,
            trials=_pick(args.trials, cfg, "trials", 200),
            seed=seed, code_seed=args.code_seed, budget=args.budget)
        table = harness.run_wer_bec(spec)
    elif args.experiment == "wer-bsc":
        n, a, b = _code_from(cfg, args)
        spec = harness.WerBscSpec(
            n=n, col_weight=a, row_weight=b,
            p_grid=tuple(float(p) for p in args.p_grid.split(",")),
            depth=_pick(args.ell, cfg, "ell", 2),
            num_candidates=_pick(args.cands, cfg, "c", 4),
            max_iter=args.max_iter,
            trials=_pick(args.trials, cfg, "trials", 2000),
            seed=seed, code_seed=args.code_seed,
            include_exhaustive=args.exhaustive)
        table = harness.run_wer_bsc(spec)
    else:
        n_list = tuple(int(v) for v in args.n_list.split(","))
        _, a, b = _code_from(cfg, args, (0, 3, 4))
        spec = harness.InversionSetSpec(
            block_lengths=n_list, col_weight=a, row_weight=b,
            p_grid=tuple(float(p) for p in args.p_grid.split(",")),
            trials=_pick(args.trials, cfg, "trials", 200),
            seed=seed, code_seed=args.code_seed)
        table = harness.run_inversion_set(spec)
    harness.emit(table, args.out, args.format)
    print(f"wrote {args.out} ({len(table.rows)} rows)")
    return 0


def cmd_mlc(args) -> int:
    if args.action == "rank":
        word = [int(ch) for ch in args.word]
        print(f"rank={mlc.rank_balanced(word, q=args.q)}")
    elif args.action == "unrank":
        x = mlc.unrank_balanced(args.rank, args.q, args.m)
        print(f"word={''.join(str(s) for s in x)}")
    elif args.action == "balance":
        word = [int(ch) for ch in args.word]
        x, trace = mlc.knuth_q_balance(word, args.q)
        print(f"word={''.join(str(s) for s in x)}")
        print(f"trace={','.join(str(v) for v in trace.locations)}")
        print(f"groups={','.join(str(v) for v in trace.groups)}")
    else:
        word = [int(ch) for ch in args.word]
        locs = tuple(int(v) for v in args.trace.split(","))
        grps = (tuple(int(v) for v in args.groups.split(","))
                if args.groups else (0,) * len(locs))
        x = mlc.knuth_q_unbalance(word, mlc.BalancingTrace(locs, grps), args.q)
        print(f"word={''.join(str(s) for s in x)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="balmod",
                                     description="balanced modulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enc = sub.add_parser("encode", help="encode a binary message")
    p_enc.add_argument("--bits", required=True)
    p_enc.add_argument("--scheme", choices=("knuth", "ldpc"), default="knuth")
    p_enc.add_argument("--code", type=str, default=None, help="n,a,b")
    _add_common(p_enc, seed=True)
    p_enc.set_defaults(func=cmd_encode)

    p_dec = sub.add_parser("decode", help="decode a received word")
    p_dec.add_argument("--bits", required=True)
    p_dec.add_argument("--scheme", choices=("knuth", "ldpc"), default="knuth")
    p_dec.add_argument("--code", type=str, default=None, help="n,a,b")
    p_dec.add_argument("--p", type=float, default=0.02, help="assumed crossover")
    p_dec.add_argument("--ell", type=int, default=None)
    p_dec.add_argument("--cands", type=int, default=None)
    _add_common(p_dec, seed=True)
    p_dec.set_defaults(func=cmd_decode)

    p_thr = sub.add_parser("threshold", help="compute a read threshold")
    p_thr.add_argument("--levels", required=True, help="comma-separated levels")
    p_thr.add_argument("--method", choices=("exact", "bisect", "mean", "second-order"),
                       default="exact")
    p_thr.add_argument("--lo", type=float, default=0.0)
    p_thr.add_argument("--hi", type=float, default=1.0)
    p_thr.add_argument("--eps", type=float, default=None)
    p_thr.add_argument("--a-const", dest="a_const", type=float, default=None)
    _add_common(p_thr, seed=False)
    p_thr.set_defaults(func=cmd_threshold)

    p_sim = sub.add_parser("sim", help="run a seeded experiment")
    sim_sub = p_sim.add_subparsers(dest="experiment", required=True)

    s_ber = sim_sub.add_parser("ber")
    s_ber.add_argument("--model", choices=(MEAN_DRIFT, VARIANCE_GROWTH),
                       default=MEAN_DRIFT)
    s_ber.add_argument("--sigma", type=float, default=None)
    s_ber.add_argument("--t-grid", dest="t_grid", default="0,0.1,0.2,0.3,0.4,0.5")
    s_ber.add_argument("--cells", type=int, default=10_000)
    s_ber.add_argument("--a-const", dest="a_const", type=float, default=None)
    _add_sim_common(s_ber)
    s_ber.set_defaults(func=cmd_sim)

    s_bec = sim_sub.add_parser("wer-bec")
    s_bec.add_argument("--n-list", dest="n_list", default="64,128,256")
    s_bec.add_argument("--code", type=str, default=None, help="ignored n field: n,a,b")
    s_bec.add_argument("--p", type=float, default=0.35)
    s_bec.add_argument("--budget", type=int, default=None)
    s_bec.add_argument("--code-seed", dest="code_seed", type=int, default=11)
    _add_sim_common(s_bec)
    s_bec.set_defaults(func=cmd_sim)

    s_bsc = sim_sub.add_parser("wer-bsc")
    s_bsc.add_argument("--code", type=str, default=None, help="n,a,b")
    s_bsc.add_argument("--p-grid", dest="p_grid", default="0.05,0.055,0.06,0.065")
    s_bsc.add_argument("--ell", type=int, default=None)
    s_bsc.add_argument("--cands", type=int, default=None)
    s_bsc.add_argument("--max-iter", dest="max_iter", type=int, default=50)
    s_bsc.add_argument("--exhaustive", action="store_true")
    s_bsc.add_argument("--code-seed", dest="code_seed", type=int, default=1)
    _add_sim_common(s_bsc)
    s_bsc.set_defaults(func=cmd_sim)

    s_inv = sim_sub.add_parser("inversion-set")
    s_inv.add_argument("--n-list", dest="n_list", default="64,128,256")
    s_inv.add_argument("--code", type=str, default=None, help="ignored n field: n,a,b")
    s_inv.add_argument("--p-grid", dest="p_grid", default="0.15,0.25,0.35,0.45")
    s_inv.add_argument("--code-seed", dest="code_seed", type=int, default=11)
    _add_sim_common(s_inv)
    s_inv.set_defaults(func=cmd_sim)

    p_mlc = sub.add_parser("mlc", help="multi-level-cell balanced codecs")
    mlc_sub = p_mlc.add_subparsers(dest="action", required=True)
    m_rank = mlc_sub.add_parser("rank")
    m_rank.add_argument("--word", required=True)
    m_rank.add_argument("--q", type=int, default=None)
    m_rank.set_defaults(func=cmd_mlc)
    m_unrank = mlc_sub.add_parser("unrank")
    m_unrank.add_argument("--rank", type=int, required=True)
    m_unrank.add_argument("--q", type=int, required=True)
    m_unrank.add_argument("--m", type=int, required=True)
    m_unrank.set_defaults(func=cmd_mlc)
    m_bal = mlc_sub.add_parser("balance")
    m_bal.add_argument("--word", required=True)
    m_bal.add_argument("--q", type=int, required=True)
    m_bal.set_defaults(func=cmd_mlc)
    m_unbal = mlc_sub.add_parser("unbalance")
    m_unbal.add_argument("--word", required=True)
    m_unbal.add_argument("--trace", required=True, help="comma-separated locations")
    m_unbal.add_argument("--groups", default=None, help="comma-separated group ids")
    m_unbal.add_argument("--q", type=int, required=True)
    m_unbal.set_defaults(func=cmd_mlc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest in ("seed", "code_seed"):
            _check_seed("--" + dest.replace("_", "-"), getattr(args, dest, None))
        return args.func(args)
    except ValueError as exc:
        print(f"balmod: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
