"""Run a workload several times, one seed per run, and report each metric's spread.

    python3 perfbench/steady.py --workload exact [--out FILE]

Runs seeds 1 to 10. The spread of a metric is the distance between the
first and third quartiles of its per-run values (statistics.quantiles,
n=4) as a share of their median. The benchmark is steady when every
end-to-end spread is within a third of the metric's bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: import perfbench as a package, not this directory
    sys.path[0] = str(ROOT)

from perfbench.run import git_sha  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, trace: int = 0) -> dict:
    """One run of the benchmark command; returns its result line."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    runs = []
    for seed in SEEDS:
        result = run_once(args.workload, seed)
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    steady = all(r["correct"] for r in runs)
    summary = {}
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in runs]
        med, s = spread(values)
        verdict = "ok" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
        steady &= s < bound / 3
        summary[name] = {"median": med, "spread": s, "values": values}
        print(f"{name:<32} median {med:<12.6g} spread {s:8.4f}  bound {bound}  {verdict}")
    if args.out:
        env = {"git_sha": git_sha(ROOT), "python": platform.python_version(),
               "nproc": os.cpu_count(), "platform": platform.platform()}
        Path(args.out).write_text(json.dumps({**env, "workload": args.workload,
                                              "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
