#!/usr/bin/env python3
"""End-to-end benchmark: whole Simulator::run passes, timed layer by layer.

    python3 perfbench/run.py --workload paper-406 --seed 1 --seconds 20 --trace 0

Builds perfbench/ (the library from src/ plus the e2e_pass program) into
.bench_build, then for one workload:

  1. runs one untimed verification pass: the simulator profiles by itself
     (RunContext::store = nullptr) and an InvariantAuditor watches every run;
  2. runs timed passes, each in a fresh process, until --seconds is used up
     (at least MIN_PASSES); with --trace 1 every second pass has
     TraceRecorder and MetricsRegistry enabled;
  3. checks that every pass gives the verification pass's SimResult digests,
     with every job finished and every JCT finite;
  4. prints a table of every metric with its unit and sample count, then, as
     the last line, one JSON object: end-to-end metrics with --trace 0,
     per-layer metrics with --trace 1.

The job traces are fixed by the workload and its recorded trace and fault
seeds (--trace-seed, --fault-seed), so the simulated results are the same on
every run. --seed seeds the order in which each pass generates, profiles and
replays its traces. Trace seed 7 is held out: keep it for confirming a claim
made with the default seeds.

The benchmark is a single thread that replays traces in batch; there is no
request loop. The policy's thread pool is pinned by RUBICK_THREADS.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("paper-406", "overload-1000", "faulted-observed-400",
             "baselines-406")
DEFAULT_TRACE_SEED = 1
DEFAULT_FAULT_SEED = 13
MIN_PASSES = 3
RUN_LIMIT_S = 160  # verification plus timed passes, after the build
MAX_THREADS = 4
# Timings are scaled to a machine on which e2e_pass's machine probe takes
# this long (see machine_probe_s in e2e_pass.cc).
PROBE_REF_S = 0.010

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("round_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("avg_jct_h", "sim_h"),
    ("makespan_h", "sim_h"),
]

# round_p99_ms rests on the 10-25 slowest rounds of a pass and spread by up
# to 0.2 from run to run even after scaling, too close to any bound to gate;
# it is reported here and printed in the --trace 0 table.
PER_LAYER = [
    ("round_p99_ms", "ms"),
    ("trace.gen_s", "s"),
    ("perf.profile_fit_s", "s"),
    ("perf.models", "count"),
    ("sim.loop_self_s", "s"),
    ("sim.online_refits", "count"),
    ("sim.ticks", "count"),
    ("sim.rounds", "count"),
    ("sched.busy_s", "s"),
    ("sched.busy_s.rubick", "s"),
    ("sched.busy_s.sia", "s"),
    ("sched.busy_s.synergy", "s"),
    ("sched.busy_s.antman", "s"),
    ("sched.round_max_ms", "ms"),
    ("sched.bind_s", "s"),
    ("sched.curves_s", "s"),
    ("sched.decide_s", "s"),
    ("sched.phase_coverage", "ratio"),
    ("sched.fast_path_rounds", "count"),
    ("sched.victim_heap_pops", "count"),
    ("sched.slope_evals", "count"),
    ("sched.slope_evals_saved", "count"),
    ("predictor.cache_hit_rate", "ratio"),
    ("predictor.cache_hits", "count"),
    ("predictor.cache_lookups", "count"),
    ("plan_cache.hit_rate", "ratio"),
    ("plan_cache.hits", "count"),
    ("plan_cache.lookups", "count"),
    ("obs.audit_s", "s"),
    ("obs.provenance_s", "s"),
    ("obs.busy_s", "s"),
    ("obs.log_bytes", "bytes"),
    ("obs.log_write_s", "s"),
    ("audit.checks", "count"),
    ("fault.reconfig_failures", "count"),
    ("fault.crash_restarts", "count"),
    ("fault.degraded_jobs", "count"),
    ("pass.wall_s", "s"),
    ("pass.setup_run_coverage", "ratio"),
    ("machine.probe_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(threads):
    """Configures (once) and builds the benchmark; returns the e2e_pass path."""
    if not (ROOT / "src" / "sim" / "simulator.h").is_file():
        raise RuntimeError(f"no library sources under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", str(threads)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "e2e_pass"


def build_type():
    try:
        for line in (build_dir() / "CMakeCache.txt").read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def git_sha():
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0:
            return res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_pass(exe, args, mode, order_seed, env, timeout_s):
    """Runs one pass in a fresh process; returns its JSON or an error."""
    cmd = [str(exe), f"--workload={args.workload}", f"--mode={mode}",
           f"--trace-seed={args.trace_seed}", f"--fault-seed={args.fault_seed}",
           f"--order-seed={order_seed}"]
    timeout_s = max(1.0, timeout_s)
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, env=env,
                             timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return None, f"{mode} pass timed out after {timeout_s:.0f} s"
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        return None, (f"{mode} pass exited {res.returncode}: "
                      f"{res.stderr.strip()[-500:]}")
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError as e:
        return None, f"{mode} pass printed bad JSON: {e}"


def percentile(xs, q):
    """Linear-interpolated percentile, q in [0, 1]."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median_of(passes, fn):
    return statistics.median(fn(p) for p in passes)


def run_key(r):
    return f"{r['label']}/{r['policy']}"


def scaled(fn):
    """fn(pass) in seconds, scaled to the reference machine speed.

    The speed of a shared machine drifts by half and more over minutes as
    other tenants come and go; every pass brackets itself with the same
    fixed probe, and dividing by it takes that drift out.
    """
    return lambda p: fn(p) * PROBE_REF_S / p["probe_s"]


def round_ms(q):
    """Per-pass q-percentile of schedule() latency, in scaled ms."""
    return scaled(lambda p: 1e3 * percentile(p["round_s"], q))


def end_to_end_metrics(timed, reference):
    # Round percentiles are taken per pass; with the default seeds every
    # pass has at least 10 rounds beyond its p99.
    rounds = sum(len(p["round_s"]) for p in timed)
    runs = list(reference.values())
    return {
        "setup_s": (median_of(timed, scaled(lambda p: p["trace_gen_s"] +
                                            p["profile_fit_s"])),
                    len(timed)),
        "run_s": (median_of(timed, scaled(lambda p: p["run_s"])), len(timed)),
        "round_p50_ms": (median_of(timed, round_ms(0.50)), rounds),
        "round_p99_ms": (median_of(timed, round_ms(0.99)), rounds),
        "peak_rss_mb": (median_of(timed, lambda p: p["peak_rss_mb"]),
                        len(timed)),
        "avg_jct_h": (statistics.fmean(r["avg_jct_h"] for r in runs),
                      len(runs)),
        "makespan_h": (statistics.fmean(r["makespan_h"] for r in runs),
                       len(runs)),
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(traced, untraced, verify):
    def med(fn):
        return (median_of(traced, fn), len(traced))

    def secs(fn):
        return med(scaled(fn))

    def obs_busy(p):
        return p["obs_audit_s"] + p["obs_provenance_s"]

    def run_s(passes):
        return median_of(passes, scaled(lambda p: p["run_s"]))

    m = {
        "round_p99_ms": (median_of(untraced, round_ms(0.99)),
                         sum(len(p["round_s"]) for p in untraced)),
        "trace.gen_s": secs(lambda p: p["trace_gen_s"]),
        "perf.profile_fit_s": secs(lambda p: p["profile_fit_s"]),
        "perf.models": med(lambda p: p["models"]),
        "sim.loop_self_s": secs(lambda p: p["run_s"] - p["sched_busy_s"] -
                                obs_busy(p)),
        "sim.online_refits": med(lambda p: sum(r["refits"]
                                               for r in p["runs"])),
        "sim.ticks": med(lambda p: p["ticks"]),
        "sim.rounds": med(lambda p: sum(r["rounds"] for r in p["runs"])),
        "sched.busy_s": secs(lambda p: p["sched_busy_s"]),
        "sched.round_max_ms": secs(lambda p: max(p["round_s"]) * 1e3),
        "sched.bind_s": secs(lambda p: p["bind_s"]),
        "sched.curves_s": secs(lambda p: p["curves_s"]),
        "sched.decide_s": secs(lambda p: p["decide_s"]),
        "sched.phase_coverage": med(lambda p: ratio(
            p["bind_s"] + p["curves_s"] + p["decide_s"], p["sched_busy_s"])),
        "sched.fast_path_rounds": med(lambda p: p["fast_path_rounds"]),
        "sched.victim_heap_pops": med(lambda p: p["victim_heap_pops"]),
        "sched.slope_evals": med(lambda p: p["slope_evals"]),
        "sched.slope_evals_saved": med(lambda p: p["slope_evals_saved"]),
        "predictor.cache_hit_rate": med(lambda p: ratio(
            p["predictor_hits"], p["predictor_lookups"])),
        "predictor.cache_hits": med(lambda p: p["predictor_hits"]),
        "predictor.cache_lookups": med(lambda p: p["predictor_lookups"]),
        "plan_cache.hit_rate": med(lambda p: ratio(
            p["plan_cache_hits"], p["plan_cache_lookups"])),
        "plan_cache.hits": med(lambda p: p["plan_cache_hits"]),
        "plan_cache.lookups": med(lambda p: p["plan_cache_lookups"]),
        "obs.audit_s": secs(lambda p: p["obs_audit_s"]),
        "obs.provenance_s": secs(lambda p: p["obs_provenance_s"]),
        "obs.busy_s": secs(obs_busy),
        "obs.log_bytes": med(lambda p: p["log_bytes"]),
        "obs.log_write_s": secs(lambda p: p["log_write_s"]),
        "audit.checks": (verify["audit_checks"], 1),
        "fault.reconfig_failures": med(lambda p: p["reconfig_failures"]),
        "fault.crash_restarts": med(lambda p: p["crash_restarts"]),
        "fault.degraded_jobs": med(lambda p: p["degraded_jobs"]),
        "pass.wall_s": secs(lambda p: p["wall_s"]),
        "pass.setup_run_coverage": med(lambda p: ratio(
            p["trace_gen_s"] + p["profile_fit_s"] + p["run_s"], p["wall_s"])),
        "machine.probe_ms": med(lambda p: 1e3 * p["probe_s"]),
        "trace_overhead_frac": (run_s(traced) / run_s(untraced) - 1.0,
                                len(traced) + len(untraced)),
    }
    for policy in ("rubick", "sia", "synergy", "antman"):
        m[f"sched.busy_s.{policy}"] = secs(
            lambda p, policy=policy: p["sched_busy_by_policy"].get(policy, 0.0))
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True,
                    help="seeds the order each pass replays its runs in")
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget of the timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-seed", type=int, default=DEFAULT_TRACE_SEED)
    ap.add_argument("--fault-seed", type=int, default=DEFAULT_FAULT_SEED)
    args = ap.parse_args()

    threads = max(1, min(MAX_THREADS, os.cpu_count() or 1))
    try:
        exe = build(threads)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    env = dict(os.environ, RUBICK_THREADS=str(threads))
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace_seed={args.trace_seed} fault_seed={args.fault_seed} "
          f"RUBICK_THREADS={threads} nproc={os.cpu_count()} "
          f"build={build_type()} sha={git_sha()}")

    # The build is done; everything after it must end within the time a
    # run is allowed, however slow the passes turn out to be.
    deadline = time.monotonic() + RUN_LIMIT_S
    attempted = 0
    failed = 0
    problems = []

    verify, err = run_pass(exe, args, "verify", args.seed, env, RUN_LIMIT_S)
    if verify is None:
        log(f"perfbench: {err}")
        return 1
    reference = {run_key(r): r for r in verify["runs"]}
    for r in verify["runs"]:
        attempted += 1
        if r["error"]:
            failed += 1
            problems.append(f"verify {run_key(r)}: {r['error']}")
    print(f"verify: {len(verify['runs'])} run(s) with ctx.store=nullptr, "
          f"audit {verify['audit_violations']} violation(s) over "
          f"{verify['audit_checks']} check(s)")

    timed, traced = [], []
    start = time.monotonic()
    index = 0
    while True:
        now = time.monotonic()
        done = len(timed) + len(traced)
        mean_pass = (now - start) / done if done else 0.0
        enough = timed and (traced or not args.trace)
        if enough and (now + mean_pass > deadline or
                       (done >= MIN_PASSES and
                        now - start + mean_pass > args.seconds)):
            break
        if now >= deadline:
            break
        mode = "traced" if args.trace and index % 2 == 1 else "timed"
        index += 1
        p, err = run_pass(exe, args, mode, args.seed * 1000 + index, env,
                          deadline - now)
        if p is None:
            attempted += len(reference)
            failed += len(reference)
            problems.append(err)
            if time.monotonic() - start > args.seconds:
                break
            continue
        for r in p["runs"]:
            attempted += 1
            want = reference.get(run_key(r))
            if r["error"]:
                failed += 1
                problems.append(f"{mode} {run_key(r)}: {r['error']}")
            elif want is None or r["digest"] != want["digest"]:
                failed += 1
                problems.append(f"{mode} {run_key(r)}: digest {r['digest']} "
                                f"!= verify digest "
                                f"{want['digest'] if want else '(none)'}")
        (traced if mode == "traced" else timed).append(p)

    for key, r in sorted(reference.items()):
        print(f"run {key}: digest={r['digest']} avg_jct_h={r['avg_jct_h']:.4f}"
              f" makespan_h={r['makespan_h']:.4f} rounds={r['rounds']} "
              f"refits={r['refits']} finished={r['finished']}/{r['jobs']}")
    for msg in problems:
        print(f"FAILED {msg}")

    if not timed or (args.trace and not traced):
        log("perfbench: no pass completed")
        return 1
    if args.trace:
        values = per_layer_metrics(traced, timed, verify)
        spec = PER_LAYER
    else:
        values = end_to_end_metrics(timed, reference)
        spec = END_TO_END
    print(f"error_rate: {failed}/{attempted} run(s) failed")
    probe_ms = 1e3 * statistics.median(p["probe_s"] for p in timed + traced)
    print(f"machine probe: median {probe_ms:.3f} ms; timings are scaled to "
          f"{1e3 * PROBE_REF_S:g} ms")
    print(f"{'metric':<26} {'value':>16} {'unit':<6} samples")
    units = dict(END_TO_END + PER_LAYER)
    for name, (value, samples) in values.items():
        print(f"{name:<26} {value:>16.6g} {units[name]:<6} {samples}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": unit}
                    for name, unit in spec},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
