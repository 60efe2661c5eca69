"""Runs the benchmark over several seeds and prints the tables in README.md.

    python3 bench/report.py

For every workload in BENCHMARK.json: one untraced run on each of seeds
1-10, giving each end-to-end metric's median, quartiles and spread
(interquartile distance over median, against a third of its bound); then one
traced run on seed 1, giving the per-layer metrics and the tracing overhead
against the untraced run of the same seed.  Runs are sequential.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
TRACE_SEED = 1


def run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    raw = json.loads((ROOT / ".bench_runs" / f"{workload}-seed{seed}-trace{trace}" / "result.json").read_text())
    return result, raw


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        shares, untraced = set(), {}
        for seed in SEEDS:
            result, raw = run(spec, workload, seed, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect: {raw['failures']}", file=sys.stderr)
            shares.add((result["failed"], result["attempted"], raw["rounds"]))
            untraced[seed] = raw
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n### {workload}: seeds {SEEDS[0]}-{SEEDS[-1]}, "
              f"(failed, attempted, rounds) per run: {sorted(shares)}\n")
        print("| metric | median | q1 | q3 | spread | bound/3 |")
        print("| --- | --- | --- | --- | --- | --- |")
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"| {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} | {bounds[name] / 3:.3f} |")
        result, raw = run(spec, workload, TRACE_SEED, 1)
        base = untraced[TRACE_SEED]["command_s_per_round"]
        trace = raw["trace"]
        print(f"\nper-layer, seed {TRACE_SEED} (per round):\n")
        print("| metric | value |")
        print("| --- | --- |")
        for name, m in result["metrics"].items():
            print(f"| {name} | {m['value']:.4g} |")
        overhead = trace["accounted_s_per_round"] / base - 1
        print(f"\nuntraced command time {base:.3f} s/round; layer self times + cli.self_s "
              f"{trace['accounted_s_per_round']:.3f} s/round ({overhead:+.1%}); traced command time "
              f"{trace['traced_command_s_per_round']:.3f} s/round including the rebuilds")
        summary[workload] = {"end_to_end": rows, "per_layer": result["metrics"],
                             "untraced_command_s": base, "trace": trace}
    (ROOT / ".bench_runs" / "report.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
