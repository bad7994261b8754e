"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload build|exact|scan [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload runs in a fresh child process (perfbench/child.py) that
sets up, then runs whole passes over the workload's ops for about
--seconds. A second child then checks the outputs the first one stored.
Set-up is also timed in further set-up-only children, and setup_s is the
median, in seconds scaled to a nominal machine speed (see run_child).
With --trace 0 the last stdout line holds the
end-to-end metrics of BENCHMARK.json; with --trace 1 the per-layer ones.
Lines before it give every metric by name with its unit. A full record
with the raw samples goes to .bench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: import perfbench as a package, not this directory
    sys.path[0] = str(ROOT)

from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# Set-up-only children per run: at least SETUP_CHILDREN, and more until
# SETUP_SECONDS have passed, so that a short, noisy set-up gets more samples.
SETUP_CHILDREN = 10
SETUP_SECONDS = 3
REFERENCE_S = 0.001  # nominal time of the reference computation (speed.py), for setup_s
TIME_LIMIT_S = 170  # the whole run must end within 180 s


class BenchError(Exception):
    pass


def tail(values):
    """(q, value) for the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return None


def git_sha(root: Path):
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:  # no git program
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_child(workdir: Path, args, mode: str, started: float) -> dict:
    """Start one child in mode setup, run or check, wait for it, return its result document.

    Set-up and run documents get setup_s: the child's set-up seconds, net
    of the speed samples taken meanwhile, scaled to a machine on which the
    reference computation takes REFERENCE_S.
    """
    workdir.mkdir(parents=True, exist_ok=mode == "check")
    result = workdir / f"{mode}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # measure the program with its defaults: one thread, the stock digit limit
    env.pop("PRIMECOVER_THREADS", None)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result)]
    cmd += {"setup": ["--setup-only"], "run": [], "check": ["--check"]}[mode]
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=sys.stderr.fileno())
    try:
        status = proc.wait(timeout=max(TIME_LIMIT_S - (time.monotonic() - started), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} child ran past the time limit") from None
    if status != 0 or not result.is_file():
        raise BenchError(f"{mode} child exited with status {status}")
    doc = json.loads(result.read_text())
    if mode != "check":
        doc["setup_s"] = doc["setup_ns"] / doc["setup_ref_ns"] * REFERENCE_S
        doc["setup_raw_s"] = doc["setup_ns"] / 1e9
    return doc


def summarize(child: dict, setup: list[dict]) -> tuple[dict, dict]:
    """End-to-end metric values and their raw samples, from the untraced passes.

    An op's time in "ref" units is its seconds divided by the reference
    computation's seconds, timed right before and after the op. This
    machine's speed drifts by up to 2x over tens of seconds; the ratio
    cancels that drift, so the gated metrics use it.
    """
    passes = [p for p in child["passes"] if not p["traced"]]
    ops = child["ops"]
    samples = {"setup_s": [d["setup_s"] for d in setup], "setup_raw_s": [d["setup_raw_s"] for d in setup],
               "wall_s": [p["wall_ns"] / 1e9 for p in passes]}
    for i, op in enumerate(ops):
        samples[f"op.{op['name']}_s"] = [p["ops"][i]["ns"] / 1e9 for p in passes]
        samples[f"op.{op['name']}_ref"] = [p["ops"][i]["ns"] / p["ops"][i]["ref_ns"] for p in passes]
    for family in dict.fromkeys(op["family"] for op in ops if op["family"]):
        members = [i for i, op in enumerate(ops) if op["family"] == family]
        samples[family] = [sum(p["ops"][i]["ns"] for i in members) / 1e9 for p in passes]
    values = {name: median(vals) for name, vals in samples.items()}
    op_refs = [values[f"op.{op['name']}_ref"] for op in ops]
    values["wall_ref"] = sum(op_refs)
    values["op_gmean_ref"] = math.exp(sum(map(math.log, op_refs)) / len(op_refs))
    values["peak_rss_mib"] = child["peak_rss_kib"] / 1024
    return values, samples


def outcome_counts(child: dict, verdicts: dict) -> dict:
    counts = {"ok": 0, "failed": 0, "crash": 0, "known_defect": 0}
    for p in child["passes"]:
        for r in p["ops"]:
            counts[verdicts[r["output"]]["outcome"]] += 1
    return counts


def main(argv=None) -> int:
    started = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "primecover" / "__init__.py").is_file():
        print(f"error: no primecover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup = []
        setup_end = time.monotonic() + SETUP_SECONDS
        while len(setup) < SETUP_CHILDREN or time.monotonic() < setup_end:
            setup.append(run_child(work / f"setup{len(setup)}", args, "setup", started))
        child = run_child(work / "run", args, "run", started)
        verdicts = run_child(work / "run", args, "check", started)["verdicts"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup.append(child)

    values, samples = summarize(child, setup)
    counts = outcome_counts(child, verdicts)
    attempted = sum(counts.values())
    failed = counts["failed"] + counts["crash"]

    print(f"workload {args.workload}  seed {args.seed}  passes {len(child['passes'])}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, vals in samples.items():
        t = tail(vals)
        spread = f"p{t[0]:g} {t[1]:.6g}" if t else "no percentile has ten samples beyond it"
        unit = "ref" if name.endswith("_ref") else "s"
        print(f"  {name:<28} {values[name]:12.6g} {unit:<4} median of n={len(vals)}; {spread}")
    print(f"  {'wall_ref':<28} {values['wall_ref']:12.6g} ref  sum of the per-op medians")
    print(f"  {'op_gmean_ref':<28} {values['op_gmean_ref']:12.6g} ref  geometric mean of the per-op medians")
    print(f"  {'peak_rss_mib':<28} {values['peak_rss_mib']:12.6g} MiB  peak RSS of the measuring child")
    print(f"  {'fail_ratio':<28} {(attempted - counts['ok']) / attempted:12.6g} 1   "
          f"of {attempted} ops: {counts['known_defect']} known defect, "
          f"{counts['failed']} failed, {counts['crash']} crashed")
    problems = sorted({f"{key.rsplit('-', 1)[0]}: {msg}" for key, v in verdicts.items() for msg in v["problems"]})
    for line in problems:
        print(f"  problem  {line}")

    if args.trace:
        layers = child["layers"]
        for name, value in layers.items():
            print(f"  {name:<32} {value:14.6g} {units.get(name, '')}")
        for layer, secs in child["layer_self_s"].items():
            print(f"  {layer + ' self time per traced pass':<32} {secs:14.6g} s")
        if not child["counts_repeat"]:
            print("  problem  layer counts differ between traced passes")
            failed += 1
        chosen = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}

    record = {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "values": values,
        "samples": samples,
        "outcomes": counts,
        "problems": problems,
    }
    if args.trace:
        record.update({k: child[k] for k in ("layers", "layer_self_s", "counts", "counts_repeat")})
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
