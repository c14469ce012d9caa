"""Run workloads over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 10 [--out FILE]

Runs every workload of BENCHMARK.json with seeds 1..N, one process at a
time, from the root of the checkout.  For every end-to-end metric it
prints the median of the runs, the distance between first and third
quartile as a share of the median, the metric's bound from
BENCHMARK.json, and whether the spread stays below a third of the bound;
it exits 1 if any does not.  `--out` writes the environment, every run's
values and the summary as JSON, which is how bench/baseline.json was
made.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import stats

ROOT = Path(__file__).resolve().parent.parent


def run_once(cfg: dict, workload: str, seed: int) -> dict:
    cmd = [sys.executable, *cfg["command"][1:], "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(cfg["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in cfg["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    report = {"run_seconds": cfg["run_seconds"], "workloads": {}}
    steady = True
    for wl in names:
        runs = []
        for seed in range(1, args.seeds + 1):
            res = run_once(cfg, wl, seed)
            runs.append({"seed": seed, **res})
            print(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']}", flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = stats.quantiles(values)
            share = (q3 - q1) / q2
            ok = share < bound / 3
            steady &= ok
            summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": share, "bound": bound}
            print(f"  {name:<12} median {q2:12.6g}  spread {share:7.4f}  bound/3 {bound / 3:7.4f}  {'ok' if ok else 'WIDE'}")
        report["workloads"][wl] = {"runs": runs, "summary": summary}
    if args.out:
        report["environment"] = run.environment()
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
