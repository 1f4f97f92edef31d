"""Run every workload untraced and traced, print one table, optionally save it.

    python3 perfbench/report.py --seed 1 --seconds 25 [--out perfbench/baseline.json]

Each run is a separate ``run.py`` process, so ``peak_rss_mb`` is per
workload.  The table lists every end-to-end metric, plus ``failed_frac``,
and every per-layer metric, by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--out", help="write the results as JSON here")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    results = {name: {"end_to_end": bench(name, args.seed, args.seconds, 0),
                      "per_layer": bench(name, args.seed, args.seconds, 1)}
               for name in names}

    print(f"{'metric':34s} {'unit':6s} " + " ".join(f"{n:>12s}" for n in names))
    for section in ("end_to_end", "per_layer"):
        rows = [(m["name"], m["unit"]) for m in spec[section]]
        if section == "end_to_end":
            rows.append(("failed_frac", "frac"))
        for name, unit in rows:
            cells = []
            for w in names:
                res = results[w][section]
                value = (res["detail"]["failed_frac"] if name == "failed_frac"
                         else res["metrics"][name]["value"])
                cells.append(f"{value:12.5g}")
            print(f"{name:34s} {unit:6s} " + " ".join(cells))

    if args.out:
        record = {
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "seed": args.seed,
            "seconds": args.seconds,
            "results": results,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if all(r[s]["correct"] for r in results.values() for s in r) else 1


if __name__ == "__main__":
    sys.exit(main())
