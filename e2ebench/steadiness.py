#!/usr/bin/env python3
"""Record the benchmark's steadiness evidence and baseline layer breakdown.

    python3 e2ebench/steadiness.py [--runs 10] [--seed0 1000] [workload ...]

Runs every workload (or those named) --runs times untraced, each with
another seed, and writes e2ebench/results/steadiness.json: per workload and
end-to-end metric, the values, their median and quartiles (as
statistics.quantiles(values, n=4) gives them), the quartile spread as a
share of the median, and the metric's bound.  Then runs each workload once
traced and writes e2ebench/results/baseline_layers.json.  Run it from the
repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       check=False)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    return json.loads(lines[-2])["host"], json.loads(lines[-1])


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("workloads", nargs="*", default=names)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)

    evidence = {"run_seconds": spec["run_seconds"], "runs": args.runs,
                "workloads": {}}
    for w in args.workloads:
        values, hosts = {}, []
        for i in range(args.runs):
            host, r = run(spec, w, args.seed0 + i, 0)
            hosts.append(host)
            for k, m in r["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            print(w, args.seed0 + i, json.dumps(r["metrics"]), flush=True)
        rows = {}
        for k, v in values.items():
            q1, q2, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            rows[k] = {"median": med, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / med, "bound": bounds[k],
                       "values": v}
            print(f"{w:9s} {k:15s} median={med:<12.6g} "
                  f"spread={(q3 - q1) / med:.4f} bound={bounds[k]}",
                  flush=True)
        evidence["workloads"][w] = {
            "seeds": [args.seed0 + i for i in range(args.runs)],
            "metrics": rows,
            "steal_ticks": [h.get("steal_ticks") for h in hosts],
            "other_cpu_ticks": [h.get("other_cpu_ticks") for h in hosts]}
        evidence["host"] = {k: v for k, v in hosts[0].items()
                            if k not in ("wall_s", "steal_ticks",
                                         "other_cpu_ticks")}
    with open(os.path.join(out_dir, "steadiness.json"), "w") as f:
        json.dump(evidence, f, indent=1)
        f.write("\n")

    layers = {}
    for w in args.workloads:
        host, r = run(spec, w, args.seed0, 1)
        layers[w] = {"seed": args.seed0, "result": r}
        layers["host"] = {k: v for k, v in host.items()
                          if k not in ("steal_ticks", "other_cpu_ticks")}
    with open(os.path.join(out_dir, "baseline_layers.json"), "w") as f:
        json.dump(layers, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
