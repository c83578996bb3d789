#!/usr/bin/env python3
"""Repository benchmark for irgnn: paper pipeline, served queries, corpus ingest.

    python3 perfbench/run.py --workload hot|cold --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds libirgnn
plus the perfbench binary into .bench_build/ (Release); later runs rebuild
incrementally. Each run executes three phases, each in its own process so
that each starts cold with its own thread-pool size:

  pipeline  core::run_experiment on SandyBridge and Skylake at the fig
            benches' default scale (fixed options: a bit-exact tripwire)
  serve     open-loop Poisson traffic over loopback TCP into NetServer +
            Router; the workload picks the traffic (hot: Zipf over repeated
            fingerprints; cold: every request a distinct graph variant)
  ingest    reference textual-IR corpus -> ingest_directory -> .irds -> warm load

--trace 0 prints every end_to_end metric of BENCHMARK.json, --trace 1 every
per_layer metric; a traced run leaves its spans, one JSON object per line,
in .bench_build/trace/<workload>/trace-<phase>.jsonl. The last line
of stdout is the result object; the exit code is nonzero when any
correctness check failed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
STATE_DIR = os.path.join(BUILD_ROOT, "state")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170  # all phases together; a run must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no irgnn sources next to perfbench/ (run from a repository checkout)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed", 3)


def host_record():
    flags, model = [], ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags") and not flags:
                    flags = line.split(":", 1)[1].split()
                elif line.startswith("model name") and not model:
                    model = line.split(":", 1)[1].strip()
    except OSError:
        pass
    simd = [f for f in flags if f.startswith(("sse4", "avx", "fma", "amx"))]
    version = subprocess.run([BINARY, "--version"], capture_output=True, text=True)
    try:
        toolchain = json.loads(version.stdout)
    except ValueError:
        toolchain = {}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "isa_flags": sorted(simd),
        "isa_flags_sha1": hashlib.sha1(" ".join(sorted(flags)).encode()).hexdigest(),
        "kernel": platform.release(),
        "compiler": toolchain.get("compiler", "unknown"),
        "build_type": toolchain.get("build_type", "unknown"),
    }


def run_phase(phase, args, work_dir, threads, timeout_s):
    """Runs one phase process; returns (result dict or None, peak RSS MiB)."""
    cmd = [
        BINARY, phase,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work_dir,
    ]
    env = dict(os.environ, IRGNN_NUM_THREADS=str(threads))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    timer = threading.Timer(max(timeout_s, 1.0), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mib = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
    lines = [l for l in out.splitlines() if l.startswith("{")]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if proc.returncode not in (0, 1) or result is None:
        log(f"perfbench: phase {phase} exited {proc.returncode} without a result")
        return None, rss_mib
    return result, rss_mib


def load_state(name):
    try:
        with open(os.path.join(STATE_DIR, name)) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def save_state(name, value):
    os.makedirs(STATE_DIR, exist_ok=True)
    tmp = os.path.join(STATE_DIR, name + ".tmp")
    with open(tmp, "w") as f:
        json.dump(value, f, indent=1)
    os.replace(tmp, os.path.join(STATE_DIR, name))


def check_stated_limits(spec, workload, config):
    """BENCHMARK.json's workload description states the frozen serving rates,
    tail limit and ladder start that serve.cpp (kHotLimits, kColdLimits)
    applies."""
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    stated = (
        f"{config['light_qps']:g}/{config['heavy_qps']:g} req/s, "
        f"p99<={config['p99_limit_us'] / 1000:g}ms; ladder from {config['ladder_start_qps']:g} "
    )
    if stated not in why:
        log(f"perfbench: CHECK FAILED: BENCHMARK.json does not state '{stated}' for {workload}")
        return False
    return True


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")
    build()

    nproc = os.cpu_count() or 1
    work_dir = os.path.join(
        BUILD_ROOT, "work", f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    )
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    # Serving: the generator is the caller thread; the pool keeps two
    # workers, one for NetServer's event loop and one for the serving loop,
    # so generator + pool workers + the one connection stay at nproc (4).
    phases = [("pipeline", nproc), ("serve", max(3, nproc - 1)), ("ingest", nproc)]
    results, phase_rss, ok = {}, {}, True
    started = time.monotonic()
    for phase, threads in phases:
        t0 = time.monotonic()
        remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
        result, rss = run_phase(phase, args, work_dir, threads, remaining)
        log(f"perfbench: phase {phase} took {time.monotonic() - t0:.1f} s")
        phase_rss[phase] = rss
        if result is None:
            ok = False
            break
        results[phase] = result
    if not ok:
        fail("a phase did not produce a result", 4)

    metrics = {}
    for r in results.values():
        for name, m in r["metrics"].items():
            if name != "setup_s":
                metrics[name] = m
    metrics["setup_s"] = {
        "value": sum(r["metrics"]["setup_s"]["value"] for r in results.values()),
        "unit": "s",
    }
    metrics["peak_rss_mb"] = {"value": max(phase_rss.values()), "unit": "MiB"}
    correct = all(r["correct"] for r in results.values())

    # The pipeline runs with fixed options, so run_experiment's decision
    # digest must be identical on every run in this checkout.
    digests = results["pipeline"]["record"]["pipeline_digests"]
    known = load_state("pipeline_digests.json")
    if known is None:
        save_state("pipeline_digests.json", digests)
    elif known != digests:
        log(f"perfbench: CHECK FAILED: pipeline digests {digests} != earlier {known}")
        correct = False

    correct = check_stated_limits(spec, args.workload, results["serve"]["record"]["serve_config"]) and correct

    # The traced per-layer figures come from a stage-by-stage replay of
    # run_experiment; its time must stay within pipeline_s's bound of the
    # library's own run in the same process.
    if args.trace == 1:
        bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "pipeline_s")
        replay_s = results["pipeline"]["record"]["pipeline_replay_s"]["traced"]
        library_s = metrics["pipeline_s"]["value"]
        if abs(replay_s / library_s - 1) > bound:
            log(f"perfbench: CHECK FAILED: traced replay took {replay_s:.2f} s, "
                f"run_experiment {library_s:.2f} s (bound {bound})")
            correct = False

    kind = "end_to_end" if args.trace == 0 else "per_layer"
    out_metrics = {}
    for m in spec[kind]:
        if m["name"] not in metrics:
            fail(f"metric {m['name']} was not produced", 5)
        out_metrics[m["name"]] = {"value": metrics[m["name"]]["value"], "unit": m["unit"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(),
        "wall_s": time.monotonic() - started,
        "phases": {p: r["record"] for p, r in results.items()},
        "phase_checks_failed": {p: r["checks_failed"] for p, r in results.items()},
        "phase_peak_rss_mb": phase_rss,
        "phase_setup_s": {p: r["metrics"]["setup_s"]["value"] for p, r in results.items()},
    }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    record["failed_share"] = failed / attempted if attempted else 0.0
    os.makedirs(os.path.join(BUILD_ROOT, "results"), exist_ok=True)
    with open(
        os.path.join(BUILD_ROOT, "results", f"{args.workload}-{args.seed}-{args.trace}.json"),
        "w",
    ) as f:
        json.dump({"record": record, "metrics": metrics}, f, indent=1)
    if args.trace == 1:
        trace_dir = os.path.join(BUILD_ROOT, "trace", args.workload)
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        for name in os.listdir(work_dir):
            if name.startswith("trace-"):
                os.replace(os.path.join(work_dir, name), os.path.join(trace_dir, name))
    shutil.rmtree(work_dir, ignore_errors=True)

    for name, m in out_metrics.items():
        print(f"{name:34s} {m['value']:16.6g} {m['unit']}")
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": out_metrics,
            }
        )
    )
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
