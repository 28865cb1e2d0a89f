#!/usr/bin/env python3
"""balmod benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload bsc-280 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload bsc-280 --seed 1 --replay 17
    python3 perfbench/run.py --smoke

Run from the repository root.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here: imports, code construction, warm-up

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4  # fresh processes, spread over the timed phase

E2E_UNITS = {
    "trials_per_s": "trials/s",
    "cells_per_s": "cells/s",
    "decode_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
MODULES = ("ldpc", "bec", "intervals", "thresholds", "channel", "words")
TRACED_UNITS = {
    "ldpc.score_ms": "ms",
    "ldpc.score_share": "ratio",
    "ldpc.candidate_hit_ratio": "ratio",
    "ldpc.bp_ms": "ms",
    "ldpc.bp_calls_per_trial": "calls/trial",
    "ldpc.bp_iterations_per_call": "iter/call",
    "ldpc.bp_converged_ratio": "ratio",
    "ldpc.syndrome_us": "us",
    "ldpc.syndrome_calls_per_trial": "calls/trial",
    "ldpc.encode_us": "us",
    "ldpc.llr_us": "us",
    "bec.decode_ms": "ms",
    "bec.peel_us": "us",
    "bec.peel_calls_per_trial": "calls/trial",
    "bec.residual_set_mean": "indices",
    "bec.unique_ratio": "ratio",
    "intervals.intersect_us": "us",
    "intervals.intersect_calls_per_trial": "calls/trial",
    "thresholds.exact_us": "us",
    "thresholds.oracle_ms": "ms",
    "channel.sample_ms_per_trial": "ms/trial",
    "words.from_array_calls_per_trial": "calls/trial",
    "words.from_array_ms_per_trial": "ms/trial",
    "harness.self_ms_per_trial": "ms/trial",
    **{f"{m}.self_ms_per_trial": "ms/trial" for m in MODULES},
    "trace_overhead_pct": "%",
}
STAGE_UNITS = {
    **{f"ldpc.score_ms_d{d}_n{n}": "ms" for n in (280, 1120, 4480) for d in (1, 2, 3)},
    **{f"ldpc.bp_iter_ms_n{n}": "ms" for n in (280, 1120)},
    **{f"ldpc.syndrome_us_n{n}": "us" for n in (280, 1120)},
    **{f"ldpc.build_s_n{n}": "s" for n in (280, 1120, 4480)},
    **{f"bec.{s}_ms_n{n}": "ms" for s in ("decode", "genie_peel") for n in (256, 1024)},
    "thresholds.exact_us_n10000": "us",
    "thresholds.oracle_ms_n10000": "ms",
    "em.fit_ms_n4096": "ms",
    "em.fit_iterations_n4096": "iterations",
    "words.knuth_encode_us_k1024": "us",
    "words.knuth_decode_us_k1024": "us",
    "mlc.q_balance_us_q4_len256": "us",
}
LAYER_UNITS = {**TRACED_UNITS, **STAGE_UNITS}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="minimum measured time of a --trace 0 run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trials", type=int,
                    help="override the workload's fixed trial count (smoke checks)")
    ap.add_argument("--replay", type=int, metavar="K",
                    help="run trial K of the seed alone, traced, and print it")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-long pass over every workload checking names, "
                         "units, validity and determinism")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    return args


def import_balmod():
    """Put the checkout's `src` first on the path; fail cleanly without it."""
    if not (ROOT / "src" / "balmod" / "__init__.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'balmod'} not found; run from a balmod checkout")
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


# ---------------------------------------------------------------------------
# Closed loop


def run_trials(wl, seed: int, ks, tracer=None):
    """Trials ks one after another; returns (outcomes, per-trial wall times)."""
    from workloads import Outcome
    outcomes, times = [], []
    for k in ks:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.trial(seed, k)
            else:
                tracer.trial = k
                with tracer.span("harness.trial"):
                    out = wl.trial(seed, k)
        except Exception as exc:  # a raising trial is a failed trial, not a crash
            out = Outcome(math.nan, {}, [f"raised {exc!r}"])
        times.append(time.perf_counter() - t0)
        outcomes.append(out)
    return outcomes, times


def run_blocks(wl, kernel, seed: int, count: int, seconds: float, probe):
    """Blocks of wl.block trials until `count` trials are done and `seconds`
    of blocks have passed, with the host scale (calibration.py) measured
    between blocks by the workload's reference kernel.  After the blocks
    that end 1/5, 2/5, ... of the time, `probe` runs a fresh process
    (setup_probe); its time is not counted.  Returns
    ([(outcomes, times, scale)], [probe results]), scale the mean of the
    two measurements around the block."""
    blocks, probes = [], []
    measured = 0.0
    before = kernel.scale()
    k = 0
    while k < count or measured < seconds:
        t0 = time.perf_counter()
        outcomes, times = run_trials(wl, seed, range(k, k + wl.block))
        after = kernel.scale()
        measured += time.perf_counter() - t0
        blocks.append((outcomes, times, 0.5 * (before + after)))
        before = after
        k += wl.block
        due = (len(probes) + 1) * seconds / (SETUP_PROBES + 1)
        if len(probes) < SETUP_PROBES and measured >= due:
            probes.append(probe())
            before = kernel.scale()
    while len(probes) < SETUP_PROBES:
        probes.append(probe())
    return blocks, probes


def failures(outcomes) -> list[tuple[int, list[str]]]:
    return [(k, o.problems) for k, o in enumerate(outcomes) if o.problems]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """High-water resident memory of this process, in MB.  VmHWM belongs to
    the process's own address space; ru_maxrss would start from the
    parent's figure, since Linux carries it across fork and exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_probe(args) -> dict:
    """One fresh process: its setup time (imports, code construction,
    warm-up trial) at nominal host speed and unscaled, and its peak RSS
    after one more trial, read before it builds a reference kernel."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def env_record(load_start) -> dict:
    import numpy
    import scipy
    rec = {"git_sha": None, "nproc": os.cpu_count(),
           "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
           "python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__,
           "threads": {v: os.environ.get(v) for v in THREAD_VARS},
           "loadavg_start": load_start, "loadavg_end": os.getloadavg()}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        rec["blas"] = None
    if (ROOT / ".git").exists():
        try:
            rec["git_sha"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                            capture_output=True, text=True,
                                            timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return rec


def say(line: str) -> None:
    print(line, flush=True)


def report(name: str, value, unit: str, samples=None) -> None:
    if value is None:
        say(f"metric {name} = absent {unit}")
    else:
        extra = f"  (n={samples})" if samples is not None else ""
        say(f"metric {name} = {value!r} {unit}{extra}")


# ---------------------------------------------------------------------------
# Traced run


def wrap_balmod(tracer) -> None:
    """One wrapper per lookup site the trial paths use."""
    from balmod import bec, channel, intervals, ldpc, thresholds, words
    sites = [
        (ldpc, "build_gallager"), (ldpc, "make_rng"), (ldpc, "encode"),
        (ldpc, "balanced_encode"), (ldpc, "_balancing_index_arr"), (ldpc, "bsc_llr"),
        (ldpc, "bp_decode", lambda r: (r.iterations, bool(r.satisfied))),
        (ldpc, "lambda_scores"), (ldpc, "candidate_inversions"),
        (ldpc, "balanced_decode", lambda r: bool(r.ok)), (ldpc, "syndrome"),
        (bec, "bec_decode", lambda r: (r.residual_set_size, r.status == bec.UNIQUE)),
        (bec, "genie_peel", lambda r: r is not None), (bec, "check_interval_sets"),
        (bec, "syndrome"), (bec, "_balancing_index_arr"),
        (intervals.IntervalSet, "intersect"), (intervals.IntervalSet, "issubset"),
        (thresholds, "balancing_threshold_exact"), (thresholds, "optimal_threshold_oracle"),
        (thresholds, "relaxed_threshold_mean"), (thresholds, "relaxed_threshold_second_order"),
        (channel, "make_rng"), (channel, "sample_levels"), (channel, "apply_bec"),
        (words.BitWord, "from_array"),
    ]
    for site in sites:
        tracer.wrap(*site)


def traced_metrics(stats, trials: int, quality: dict, overhead_pct: float) -> dict:
    def per_call(name, scale):
        calls = stats.calls.get(name, 0)
        return scale * stats.busy[name] / calls if calls else 0.0

    def per_trial(name):
        return stats.calls.get(name, 0) / trials

    def mean_info(name, pick):
        vals = [pick(v) for v in stats.info.get(name, [])]
        return sum(vals) / len(vals) if vals else 0.0

    trial_time = stats.busy["harness.trial"]
    m = {
        "ldpc.score_ms": per_call("ldpc.lambda_scores", 1e3),
        "ldpc.score_share": stats.busy.get("ldpc.lambda_scores", 0.0) / trial_time,
        "ldpc.candidate_hit_ratio": quality.get("candidate_hit_ratio", 0.0),
        "ldpc.bp_ms": per_call("ldpc.bp_decode", 1e3),
        "ldpc.bp_calls_per_trial": per_trial("ldpc.bp_decode"),
        "ldpc.bp_iterations_per_call": mean_info("ldpc.bp_decode", lambda v: v[0]),
        "ldpc.bp_converged_ratio": mean_info("ldpc.bp_decode", lambda v: v[1]),
        "ldpc.syndrome_us": per_call("ldpc.syndrome", 1e6),
        "ldpc.syndrome_calls_per_trial": per_trial("ldpc.syndrome"),
        "ldpc.encode_us": per_call("ldpc.encode", 1e6),
        "ldpc.llr_us": per_call("ldpc.bsc_llr", 1e6),
        "bec.decode_ms": per_call("bec.bec_decode", 1e3),
        "bec.peel_us": per_call("bec.genie_peel", 1e6),
        "bec.peel_calls_per_trial": per_trial("bec.genie_peel"),
        "bec.residual_set_mean": mean_info("bec.bec_decode", lambda v: v[0]),
        "bec.unique_ratio": mean_info("bec.bec_decode", lambda v: v[1]),
        "intervals.intersect_us": per_call("intervals.IntervalSet.intersect", 1e6),
        "intervals.intersect_calls_per_trial": per_trial("intervals.IntervalSet.intersect"),
        "thresholds.exact_us": per_call("thresholds.balancing_threshold_exact", 1e6),
        "thresholds.oracle_ms": per_call("thresholds.optimal_threshold_oracle", 1e3),
        "channel.sample_ms_per_trial": 1e3 * stats.layer_busy.get("channel", 0.0) / trials,
        "words.from_array_calls_per_trial": per_trial("words.BitWord.from_array"),
        "words.from_array_ms_per_trial":
            1e3 * stats.busy.get("words.BitWord.from_array", 0.0) / trials,
        "harness.self_ms_per_trial": 1e3 * stats.self_time["harness.trial"] / trials,
        **{f"{mod}.self_ms_per_trial": 1e3 * stats.layer_self.get(mod, 0.0) / trials
           for mod in MODULES},
        "trace_overhead_pct": overhead_pct,
    }
    return m


def exact_counts(stats, quality: dict) -> dict:
    """Counts that must repeat bit for bit under the same seed."""
    return {"calls": stats.calls,
            "bp_iterations": [v[0] for v in stats.info.get("ldpc.bp_decode", [])],
            "residual_sets": [v[0] for v in stats.info.get("bec.bec_decode", [])],
            "quality": {k: repr(v) for k, v in quality.items()}}


def write_spans(path: Path, spans) -> None:
    OUT.mkdir(exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        for s in spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.trial,
                                 s.info if not isinstance(s.info, tuple) else list(s.info)])
                     + "\n")


# ---------------------------------------------------------------------------
# Modes


def main_run(args) -> int:
    load_start = os.getloadavg()
    import_balmod()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    count = args.trials or wl.quality_trials
    import_s = time.perf_counter() - T0
    wl.setup()
    wl.trial(args.seed, 0)  # warm-up; trial 0 runs again, timed
    setup_main = time.perf_counter() - T0
    if args.setup_probe:
        # peak RSS levels off by the second trial on every workload; read
        # it before calibration.py allocates anything
        wl.trial(args.seed, 1)
        rss = peak_rss_mb()
        from calibration import KERNELS, setup_at_nominal
        setup_s = setup_at_nominal(import_s, setup_main - import_s, KERNELS[wl.kernel]())
        say(json.dumps({"setup_s": setup_s, "setup_unscaled_s": setup_main,
                        "peak_rss_mb": rss}))
        return 0

    say(f"workload {wl.name}: {wl.why}")
    say(f"closed loop, 1 client, seed {args.seed}, trials keyed (seed, point, trial)")
    say(f"env {json.dumps(env_record(load_start))}")
    if args.trace:
        return traced_run(args, wl, count, load_start)

    from calibration import KERNELS, setup_at_nominal
    kernel = KERNELS[wl.kernel]()
    setup_own = setup_at_nominal(import_s, setup_main - import_s, kernel)
    blocks, probes = run_blocks(wl, kernel, args.seed, count, args.seconds,
                                lambda: setup_probe(args))
    outcomes = [o for block in blocks for o in block[0]]
    times = [t for block in blocks for t in block[1]]
    failed = failures(outcomes)
    cross = wl.crosscheck(args.seed, [o.record for o in outcomes[:min(count, wl.crosscheck_trials)]]) \
        if not failed else []
    # this process's own setup is one more sample; its memory is not, as
    # it holds the reference kernel's arrays
    setups = [setup_own] + [p["setup_s"] for p in probes]
    setups_unscaled = [setup_main] + [p["setup_unscaled_s"] for p in probes]
    rss = [p["peak_rss_mb"] for p in probes]

    # Trial timings at nominal host speed: each block's rate times its host
    # scale, each decode latency divided by it (see calibration.py).
    rates = [len(ts) / sum(ts) * scale for _, ts, scale in blocks]
    decodes = [o.decode_s * 1e3 / scale for outs, _, scale in blocks
               for o in outs if not o.problems]
    trials_per_s = statistics.median(rates)
    metrics = {
        "trials_per_s": trials_per_s,
        "cells_per_s": trials_per_s * wl.cells,
        "decode_ms_p50": statistics.median(decodes) if decodes else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    for name, unit in E2E_UNITS.items():
        samples = {"setup_s": len(setups), "peak_rss_mb": len(rss),
                   "decode_ms_p50": len(decodes),
                   "trials_per_s": len(blocks), "cells_per_s": len(blocks)}.get(name)
        report(name, metrics[name], unit, samples)
    if len(decodes) >= 100:
        report("decode_ms_p90", statistics.quantiles(decodes, n=10)[-1], "ms", len(decodes))
    else:
        say(f"metric decode_ms_p90 = not reported: {len(decodes)} decodes < 100")
    report("failed_share", len(failed) / len(outcomes), "ratio", len(outcomes))
    quality = wl.quality([o.record for o in outcomes[:count]]) if not failed else {}
    for name, value in quality.items():
        report(name, value, "indices" if name == "residual_set_mean" else "ratio", count)
    scales = [scale for *_, scale in blocks]
    unscaled = {"trials_per_s": len(times) / sum(times),
                "setup_s": statistics.median(setups_unscaled),
                "decode_ms_p50": statistics.median(o.decode_s * 1e3 for o in outcomes
                                                   if not o.problems) if decodes else 0.0}
    say(f"unscaled: trials_per_s {unscaled['trials_per_s']!r} over {len(times)} trials, "
        f"decode_ms_p50 {unscaled['decode_ms_p50']!r}, setup_s {unscaled['setup_s']!r}")
    say(f"host scale: median {statistics.median(scales):.3f}, "
        f"min {min(scales):.3f}, max {max(scales):.3f} over {len(scales)} blocks")
    say(f"determinism quality {digest({k: repr(v) for k, v in quality.items()})}")
    say(f"setup_s: this process {setup_own!r}, probes {setups[1:]}, "
        f"unscaled {setups_unscaled}")
    say(f"peak_rss_mb: probes {rss}")
    for k, problems in failed[:10]:
        say(f"FAILED trial {wl.key(args.seed, k)}: {'; '.join(problems)}")
    for line in cross:
        say(f"CROSSCHECK {line}")
    say(f"env_end loadavg {os.getloadavg()}")
    correct = not failed and not cross
    return finish(args, correct, len(outcomes), len(failed), metrics, E2E_UNITS,
                  {"quality": quality, "setup_samples": setups,
                   "setup_samples_unscaled": setups_unscaled, "rss_probes": rss,
                   "unscaled": unscaled, "host_scales": scales,
                   "env": env_record(load_start)})


def traced_run(args, wl, count, load_start) -> int:
    from layers import STAGES
    from tracing import Tracer, summarize
    # Each block of trials runs once plain and once traced, in alternating
    # order, so host-speed swings and warm caches hit both sides alike.
    tracer = Tracer()
    plain, plain_times, traced, traced_times = [], [], [], []
    for b, start in enumerate(range(0, count, wl.block)):
        ks = range(start, min(start + wl.block, count))
        for traced_pass in ((False, True) if b % 2 == 0 else (True, False)):
            if not traced_pass:
                outcomes, times = run_trials(wl, args.seed, ks)
                plain += outcomes
                plain_times += times
                continue
            wrap_balmod(tracer)
            try:
                outcomes, times = run_trials(wl, args.seed, ks, tracer=tracer)
            finally:
                tracer.uninstall()
            traced += outcomes
            traced_times += times
    spans = tracer.records()
    failed = failures(plain) + failures(traced)
    cross = wl.crosscheck(args.seed, [o.record for o in plain[:min(count, wl.crosscheck_trials)]]) \
        if not failed else []
    stats = summarize(spans)
    quality = wl.quality([o.record for o in traced]) if not failed else {}
    overhead = 100.0 * (sum(traced_times) / sum(plain_times) - 1.0)
    metrics = traced_metrics(stats, count, quality, overhead)

    stage_values = {}
    for stage in wl.layer_stages:
        stage_values.update(STAGES[stage](args.seed))
    for name in STAGE_UNITS:
        # absent sizes and stages that belong to another workload read 0
        metrics[name] = stage_values.get(name) or 0.0

    for name, unit in TRACED_UNITS.items():
        report(name, metrics[name], unit)
    for name, value in stage_values.items():
        report(name, value, STAGE_UNITS[name])
    top = sorted(stats.self_time.items(), key=lambda kv: -kv[1])[:5]
    say("top self time: " + ", ".join(f"{n} {1e3 * t / count:.3f} ms/trial" for n, t in top))
    say("module self time: " + ", ".join(
        f"{m} {1e3 * t / count:.3f} ms/trial"
        for m, t in sorted(stats.layer_self.items(), key=lambda kv: -kv[1])))
    say(f"determinism counts {digest(exact_counts(stats, quality))}")
    for k, problems in failed[:10]:
        say(f"FAILED trial {wl.key(args.seed, k)}: {'; '.join(problems)}")
    for line in cross:
        say(f"CROSSCHECK {line}")
    say(f"env_end loadavg {os.getloadavg()}")
    write_spans(OUT / f"{wl.name}-seed{args.seed}-spans.jsonl", spans)
    correct = not failed and not cross
    return finish(args, correct, len(traced), len({k for k, _ in failed}), metrics, LAYER_UNITS,
                  {"quality": quality, "exact_counts": exact_counts(stats, quality),
                   "env": env_record(load_start)})


def finish(args, correct, attempted, failed, metrics, units, extra) -> int:
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                          for name, unit in units.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="ascii") as fh:
        json.dump({**result, **extra}, fh, indent=1, default=repr)
    print(json.dumps(result), flush=True)
    return 0


def main_replay(args) -> int:
    import_balmod()
    from tracing import Tracer, summarize
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    wl.setup()
    tracer = Tracer()
    wrap_balmod(tracer)
    try:
        tracer.trial = args.replay
        with tracer.span("harness.trial"):
            out = wl.trial(args.seed, args.replay)
    finally:
        tracer.uninstall()
    stats = summarize(tracer.records())
    say(f"trial {wl.key(args.seed, args.replay)} of {wl.name}")
    say(f"record {out.record}")
    say(f"problems {out.problems or 'none'}")
    say(f"decode_ms {out.decode_s * 1e3:.3f}")
    for name in sorted(stats.busy, key=lambda n: -stats.busy[n]):
        say(f"  {name:45s} calls {stats.calls[name]:5d}  busy {1e3 * stats.busy[name]:9.3f} ms"
            f"  self {1e3 * stats.self_time[name]:9.3f} ms")
    return 0 if not out.problems else 1


def main_smoke(args) -> int:
    """Every workload, briefly: names and units as in BENCHMARK.json,
    validity checks, and two traced runs of one seed giving identical counts."""
    import_balmod()
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    named = {"trials_per_s", "cells_per_s", "decode_ms_p50", "decode_ms_p90",
             "failed_share", "setup_s", "peak_rss_mb"}
    problems = []
    for name, wl in WORKLOADS.items():
        quality_name = "ber_balancing" if name.startswith("ber") else "wer"
        digests = []
        for trace in (0, 1, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", "0", "--trace", str(trace),
                   "--trials", str(wl.crosscheck_trials)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                problems.append(f"{name} trace {trace}: exit {proc.returncode} {proc.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace {trace}: metrics/units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: correct={result['correct']} "
                                f"failed={result['failed']}")
            printed = {ln.split()[1] for ln in lines if ln.startswith("metric ")}
            if trace == 0 and not (named | {quality_name}) <= printed:
                problems.append(f"{name}: report misses {(named | {quality_name}) - printed}")
            if trace == 1:
                digests += [ln for ln in lines if ln.startswith("determinism counts")]
        if len(set(digests)) != 1:
            problems.append(f"{name}: traced counts differ between two runs of one seed")
        say(f"smoke {name}: {'ok' if not any(p.startswith(name) for p in problems) else 'FAIL'}")
    for p in problems:
        say(f"SMOKE {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.smoke:
        return main_smoke(args)
    if args.replay is not None:
        return main_replay(args)
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
