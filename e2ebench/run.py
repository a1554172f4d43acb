#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 e2ebench/run.py --workload pingpong|fanin|rounds|wire \
        --seed N --seconds S --trace 0|1 [--smoke] [--plant K]

Run it from the repository root.  It builds the runtime and the benchmark
from source into .bench_build/e2ebench (or $CARGO_TARGET_DIR/e2ebench),
runs one workload, and prints two JSON lines on standard output: the host
fingerprint, then the result
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is 0 only when the build succeeded and every output check of
the workload passed.
"""
import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pingpong", "fanin", "rounds", "wire")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(base, "e2ebench")


def build(bdir):
    """Configure (once) and build; returns the benchmark binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "include", "converse", "converse.h")):
        raise RuntimeError(f"no runtime sources under {ROOT}")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "e2ebench")


def no_aslr():
    """Child set-up: turn off address-space randomization, so memory layout
    (and with it cache-set and false-sharing effects) is the same in every
    run.  Best effort: a host that refuses keeps randomization."""
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality(0x0040000)  # ADDR_NO_RANDOMIZE
    except (OSError, AttributeError):
        pass


def proc_stat_cpu():
    """Aggregate /proc/stat CPU ticks: (busy, steal), or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = (fields + [0] * 8)[:8]
    return user + nice + system + irq + softirq, steal


def cache_value(bdir, key):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def host_fingerprint(bdir):
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache_value(bdir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, check=False).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = ""
    build_type = cache_value(bdir, "CMAKE_BUILD_TYPE")
    flags = " ".join(filter(None, [
        cache_value(bdir, "CMAKE_CXX_FLAGS"),
        cache_value(bdir, "CMAKE_CXX_FLAGS_" + build_type.upper())]))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=False).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "kernel": platform.release(), "compiler": version,
            "build_type": build_type, "build_flags": flags, "git_sha": sha}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short warm-up and few set-up repetitions")
    ap.add_argument("--plant", type=int, default=0,
                    help="corrupt every K-th checked message (self-test)")
    args = ap.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as ex:
        log(f"build failed: {ex}")
        return 2

    rdv = os.path.relpath(bdir, os.getcwd())  # short Unix-socket paths
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rdv", rdv]
    if args.smoke:
        cmd.append("--smoke")
    if args.plant > 0:
        cmd += ["--plant", str(args.plant)]

    ticks = os.sysconf("SC_CLK_TCK")
    stat0 = proc_stat_cpu()
    own0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    # Its own process group, so a run that overstays is stopped together
    # with the echo process the wire workload forks.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, preexec_fn=no_aslr,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{args.workload}: no result within {RUN_TIMEOUT_S} s")
        return 3
    wall = time.monotonic() - t0
    stat1 = proc_stat_cpu()
    own1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    sys.stderr.write(stderr)

    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{args.workload}: no result (exit code {proc.returncode})")
        return proc.returncode or 4

    host = host_fingerprint(bdir)
    host["wall_s"] = round(wall, 3)
    if stat0 is not None and stat1 is not None:
        own_ticks = ((own1.ru_utime + own1.ru_stime) -
                     (own0.ru_utime + own0.ru_stime)) * ticks
        host["steal_ticks"] = stat1[1] - stat0[1]
        host["other_cpu_ticks"] = max(0, round(stat1[0] - stat0[0] - own_ticks))
    print(json.dumps({"host": host}))
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
