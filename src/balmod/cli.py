"""Command-line front end.

Subcommands: encode, decode, threshold, sim {ber, wer-bec, wer-bsc,
inversion-set}, and mlc {rank, unrank, balance, unbalance}.

Each parameter has one path: an explicit flag wins over the JSON config
file, which wins over the default of the spec or function that takes it.
Flag dests and config keys are parameter names (the keys ell, c and a_const
via CONFIG_NAMES; code = [n, a, b] sets n, col_weight and row_weight).  A
sim's harness spec gets the set parameters that are its fields, so every
sim default is the spec's own, echoed in the CSV header.  An unknown config
key or a config value of the wrong JSON type is an error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import harness, ldpc, mlc, thresholds, words
from .channel import MEAN_DRIFT, VARIANCE_GROWTH


# the JSON type of each config key; "code" is [n, a, b] or the flag's "n,a,b"
CONFIG_TYPES = {"sigma": float, "code": tuple, "ell": int, "c": int, "eps": float,
                "a_const": float, "trials": int, "seed": int}
# config keys named unlike the parameter they set
CONFIG_NAMES = {"ell": "depth", "c": "num_candidates", "a_const": "second_order_a"}

SIMS = {"ber": (harness.BerCurveSpec, harness.run_ber_curve),
        "wer-bec": (harness.WerBecSpec, harness.run_wer_bec),
        "wer-bsc": (harness.WerBscSpec, harness.run_wer_bsc),
        "inversion-set": (harness.InversionSetSpec, harness.run_inversion_set)}


def _code_triple(raw) -> tuple[int, int, int]:
    """n, a, b from the --code flag's "n,a,b" or the config's [n, a, b]."""
    try:
        parts = [int(v) for v in raw.split(",")] if isinstance(raw, str) else raw
    except ValueError:
        parts = None
    if not (isinstance(parts, (list, tuple)) and len(parts) == 3
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


def _params(args) -> dict:
    """Every parameter that was set, by name: the config's values, then the
    flags given on top of them; a code triple becomes n, col_weight and
    row_weight."""
    params = {CONFIG_NAMES.get(k, k): v for k, v in _load_config(args.config).items()}
    params.update((k, v) for k, v in vars(args).items() if v is not None)
    if "code" in params:
        params.update(zip(("n", "col_weight", "row_weight"),
                          _code_triple(params.pop("code"))))
    return params


def _given(params: dict, names) -> dict:
    """The parameters among names that a flag or the config set."""
    return {k: params[k] for k in names if k in params}


def _knuth_only(args) -> None:
    """With --scheme knuth, a flag that only --scheme ldpc reads is an error,
    not ignored; config keys are shared by every command and pass."""
    for flag, dest in (("--code", "code"), ("--seed", "seed"), ("--p", "p"),
                       ("--ell", "depth"), ("--cands", "num_candidates")):
        if getattr(args, dest, None) is not None:
            raise ValueError(f"{flag} applies only to --scheme ldpc")


def _ldpc_code(params: dict) -> ldpc.LdpcCode:
    """The code that encode and decode build for --scheme ldpc."""
    p = {"n": 280, "col_weight": 4, "row_weight": 7, "seed": 1} | params
    return ldpc.build_gallager(p["n"], p["col_weight"], p["row_weight"], p["seed"])


# argparse names a converter in its error: "invalid float_list value: '0,x'"
def float_list(s: str) -> tuple[float, ...]:
    return tuple(float(v) for v in s.split(","))


def int_list(s: str) -> tuple[int, ...]:
    return tuple(int(v) for v in s.split(","))


def digits(s: str) -> list[int]:
    return [int(ch) for ch in s]


def bits(s: str) -> words.BitWord:
    return words.BitWord.from_string(s)


def _add_common(p: argparse.ArgumentParser, seed: bool) -> None:
    if seed:
        p.add_argument("--seed", type=int, default=None, help="master seed (u64)")
    p.add_argument("--config", type=str, default=None, help="JSON key/value config")


def _add_sim_common(p: argparse.ArgumentParser, code_help: str | None = None) -> None:
    """The flags of every sim, and --code and --code-seed for those on an LDPC code."""
    _add_common(p, seed=True)
    if code_help:
        p.add_argument("--code", type=str, help=code_help)
        p.add_argument("--code-seed", dest="code_seed", type=int)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--out", type=str, required=True, help="output file path")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.set_defaults(func=cmd_sim)


def cmd_encode(args) -> int:
    params = _params(args)
    u = args.bits
    if args.scheme == "knuth":
        _knuth_only(args)
        cw = words.knuth_encode(u)
        print(f"prefix={cw.prefix} payload={cw.payload}")
        print(f"codeword={cw.prefix}{cw.payload}")
    else:
        x, i = ldpc.balanced_encode(_ldpc_code(params), u)
        print(f"codeword={x}")
        print(f"inversion_index={i}")
    return 0


def cmd_decode(args) -> int:
    params = _params(args)
    y = args.bits
    if args.scheme == "knuth":
        _knuth_only(args)
        total = len(y)
        k = next((k for k in range(2, total, 2) if k + words.prefix_length(k) == total),
                 None)
        if k is None:
            raise ValueError(f"no Knuth codeword has total length {total}")
        p = total - k
        cw = words.KnuthCodeword(payload=words.BalancedWord(y[p:]),
                                 prefix=words.BalancedWord(y[:p]))
        print(f"message={words.knuth_decode(cw)}")
    else:
        code = _ldpc_code(params)
        if len(y) != code.n:
            raise ValueError(f"--bits has {len(y)} bits, the code length n is {code.n}")
        res = ldpc.balanced_decode_bsc(code, y, p=0.02 if args.p is None else args.p,
                                       **_given(params, ("depth", "num_candidates")))
        if not res.ok:
            print("decode failure")
            return 1
        print(f"message={''.join(map(str, res.u.tolist()))}")
        print(f"inversion_index={res.i}")
    return 0


def cmd_threshold(args) -> int:
    params = _params(args)
    levels = np.array(args.levels)
    if args.method == "exact":
        res = thresholds.balancing_threshold_exact(levels)
        v, note = res.value, f" exact={res.exact}"
    elif args.method == "bisect":
        v, note = thresholds.balancing_threshold_bisect(
            levels, args.lo, args.hi, params.get("eps", 1e-9)), ""
    elif args.method == "mean":
        v, note = thresholds.relaxed_threshold_mean(levels), ""
    else:
        v, note = thresholds.relaxed_threshold_second_order(
            levels, *_given(params, ("second_order_a",)).values()), ""
    print(f"threshold={v!r} ones={int(np.sum(levels >= v))}/{levels.size}{note}")
    return 0


def _sim_spec(args):
    """The experiment's spec from the parameters that were set and that are
    its fields; the spec's own defaults fill in the rest."""
    spec_cls, _ = SIMS[args.experiment]
    return spec_cls(**_given(_params(args), [f.name for f in dataclasses.fields(spec_cls)]))


@contextlib.contextmanager
def _writing(path: str):
    """An OSError while writing path as a one-line error naming it."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def cmd_sim(args) -> int:
    spec = _sim_spec(args)
    with _writing(args.out):
        # a file that vanishes on close: a missing or unwritable directory
        # fails before the run, and a run that fails leaves no file behind
        tempfile.TemporaryFile(dir=Path(args.out).absolute().parent).close()
    if Path(args.out).is_dir():
        raise ValueError(f"cannot write {args.out}: Is a directory")
    table = SIMS[args.experiment][1](spec)
    with _writing(args.out):
        harness.emit(table, args.out, args.format)
    print(f"wrote {args.out} ({len(table.rows)} rows)")
    return 0


def cmd_mlc(args) -> int:
    if args.action == "rank":
        print(f"rank={mlc.rank_balanced(args.word, q=args.q)}")
    elif args.action == "unrank":
        x = mlc.unrank_balanced(args.rank, args.q, args.m)
        print(f"word={''.join(str(s) for s in x)}")
    elif args.action == "balance":
        x, trace = mlc.knuth_q_balance(args.word, args.q)
        print(f"word={''.join(str(s) for s in x)}")
        print(f"trace={','.join(str(v) for v in trace.locations)}")
        print(f"groups={','.join(str(v) for v in trace.groups)}")
    else:
        grps = args.groups or (0,) * len(args.trace)
        x = mlc.knuth_q_unbalance(args.word, mlc.BalancingTrace(args.trace, grps), args.q)
        print(f"word={''.join(str(s) for s in x)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="balmod",
                                     description="balanced modulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enc = sub.add_parser("encode", help="encode a binary message")
    p_enc.add_argument("--bits", type=bits, required=True)
    p_enc.add_argument("--scheme", choices=("knuth", "ldpc"), default="knuth")
    p_enc.add_argument("--code", type=str, help="n,a,b")
    _add_common(p_enc, seed=True)
    p_enc.set_defaults(func=cmd_encode)

    p_dec = sub.add_parser("decode", help="decode a received word")
    p_dec.add_argument("--bits", type=bits, required=True)
    p_dec.add_argument("--scheme", choices=("knuth", "ldpc"), default="knuth")
    p_dec.add_argument("--code", type=str, help="n,a,b")
    p_dec.add_argument("--p", type=float, help="assumed crossover (default 0.02)")
    p_dec.add_argument("--ell", dest="depth", type=int)
    p_dec.add_argument("--cands", dest="num_candidates", type=int)
    _add_common(p_dec, seed=True)
    p_dec.set_defaults(func=cmd_decode)

    p_thr = sub.add_parser("threshold", help="compute a read threshold")
    p_thr.add_argument("--levels", type=float_list, required=True,
                       help="comma-separated levels")
    p_thr.add_argument("--method", choices=("exact", "bisect", "mean", "second-order"),
                       default="exact")
    p_thr.add_argument("--lo", type=float, default=0.0)
    p_thr.add_argument("--hi", type=float, default=1.0)
    p_thr.add_argument("--eps", type=float)
    p_thr.add_argument("--a-const", dest="second_order_a", type=float)
    _add_common(p_thr, seed=False)
    p_thr.set_defaults(func=cmd_threshold)

    p_sim = sub.add_parser("sim", help="run a seeded experiment")
    sim_sub = p_sim.add_subparsers(dest="experiment", required=True)

    s_ber = sim_sub.add_parser("ber")
    s_ber.add_argument("--model", choices=(MEAN_DRIFT, VARIANCE_GROWTH))
    s_ber.add_argument("--sigma", type=float)
    s_ber.add_argument("--t-grid", dest="t_grid", type=float_list)
    s_ber.add_argument("--cells", type=int)
    s_ber.add_argument("--a-const", dest="second_order_a", type=float)
    _add_sim_common(s_ber)

    s_bec = sim_sub.add_parser("wer-bec")
    s_bec.add_argument("--n-list", dest="block_lengths", type=int_list)
    s_bec.add_argument("--p", dest="erasure_p", type=float)
    s_bec.add_argument("--budget", type=int)
    _add_sim_common(s_bec, "ignored n field: n,a,b")

    s_bsc = sim_sub.add_parser("wer-bsc")
    s_bsc.add_argument("--p-grid", dest="p_grid", type=float_list)
    s_bsc.add_argument("--ell", dest="depth", type=int)
    s_bsc.add_argument("--cands", dest="num_candidates", type=int)
    s_bsc.add_argument("--max-iter", dest="max_iter", type=int)
    s_bsc.add_argument("--exhaustive", dest="include_exhaustive", action="store_true",
                       default=None)
    _add_sim_common(s_bsc, "n,a,b")

    s_inv = sim_sub.add_parser("inversion-set")
    s_inv.add_argument("--n-list", dest="block_lengths", type=int_list)
    s_inv.add_argument("--p-grid", dest="p_grid", type=float_list)
    _add_sim_common(s_inv, "ignored n field: n,a,b")

    p_mlc = sub.add_parser("mlc", help="multi-level-cell balanced codecs")
    p_mlc.set_defaults(func=cmd_mlc)
    mlc_sub = p_mlc.add_subparsers(dest="action", required=True)
    m_rank = mlc_sub.add_parser("rank")
    m_rank.add_argument("--word", type=digits, required=True)
    m_rank.add_argument("--q", type=int, default=None)
    m_unrank = mlc_sub.add_parser("unrank")
    m_unrank.add_argument("--rank", type=int, required=True)
    m_unrank.add_argument("--q", type=int, required=True)
    m_unrank.add_argument("--m", type=int, required=True)
    m_bal = mlc_sub.add_parser("balance")
    m_bal.add_argument("--word", type=digits, required=True)
    m_bal.add_argument("--q", type=int, required=True)
    m_unbal = mlc_sub.add_parser("unbalance")
    m_unbal.add_argument("--word", type=digits, required=True)
    m_unbal.add_argument("--trace", type=int_list, required=True, help="locations")
    m_unbal.add_argument("--groups", type=int_list, help="group ids")
    m_unbal.add_argument("--q", type=int, required=True)

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
