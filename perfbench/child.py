"""One benchmark child process: set up a workload, run it, or check its outputs.

Started by run.py as `python3 -m perfbench.child` with the checkout root
and its src directory on PYTHONPATH and a scratch working directory as
cwd; writes its raw samples as JSON to --result.

- By default the child sets up, then runs whole passes over the
  workload's ops in a closed loop: one client runs one op after another,
  with no threads or pools. Each distinct output of an op is stored under
  outputs/ in the working directory.
- With --setup-only it sets up and stops.
- With --check it checks every stored output. This runs in a process of
  its own, so the checks count neither in the measuring child's time nor
  in its peak RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import resource
import shutil
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from perfbench import checks
from perfbench.speed import INTERVAL_S, SpeedMeter
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, Op, Outcome, run_op

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
OUTPUTS = Path("outputs")
MIN_PASSES = 2
SETUP_INTERVAL_S = 0.005


class OutputStore:
    """Runs ops and keeps each distinct output on disk for the checking child.

    An op gives the same output in every pass, so an output is written
    only the first time it is seen; a pass refers to it by its key.
    """

    def __init__(self) -> None:
        OUTPUTS.mkdir()
        self.seen: set[str] = set()

    def run(self, op: Op) -> tuple[int, int, str]:
        """Run one op and store its output: (start ns, end ns, output key)."""
        out_file = Path(op.out_file) if op.out_file is not None else None
        if out_file is not None:
            out_file.unlink(missing_ok=True)  # never take an earlier pass's file for this one's
        start, end, out = run_op(op)
        written = out_file is not None and out_file.is_file()
        file_digest = None
        if written:
            with out_file.open("rb") as f:
                file_digest = hashlib.file_digest(f, "sha256").hexdigest()
        data = pickle.dumps((op.name, out, file_digest))
        key = f"{op.name}-{hashlib.sha256(data).hexdigest()[:16]}"
        if key not in self.seen:
            self.seen.add(key)
            (OUTPUTS / f"{key}.pkl").write_bytes(data)
            if written:
                shutil.copyfile(out_file, OUTPUTS / f"{key}.file")
        return start, end, key


def output_digests(op: Op, out: Outcome) -> dict[str, str]:
    digests = {}
    if op.argv is not None:
        digests["stdout"] = hashlib.sha256(out.stdout.encode()).hexdigest()
    if op.out_file is not None:
        digests["file"] = hashlib.sha256(out.file_bytes or b"").hexdigest()
    if op.call is not None:
        result = out.result
        if isinstance(result, Fraction):
            values = [result]
        else:  # a SieveReport
            levels = result.profile.levels
            values = [v for k in sorted(levels) for v in (Fraction(k), levels[k])]
            values += [result.profile.nu, result.alpha, result.omega_measure, result.markov_bound]
        digests["result"] = checks.fraction_digest(values)
    return digests


def classify(op: Op, out: Outcome, expected: dict | None) -> tuple[str, list[str]]:
    """ok, failed, crash (an exception escaped the entry point) or known_defect."""
    if out.crash is not None:
        return "crash", [out.crash]
    if op.defect is not None and out.status != 0 and out.stderr.startswith(op.defect):
        return "known_defect", []
    if out.status != 0:
        first = out.stderr.splitlines()[0] if out.stderr else ""
        return "failed", [f"exit status {out.status}: {first}"]
    try:
        problems = op.check(out)
    except Exception as exc:  # output the check cannot even parse
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    if expected is not None:
        got = output_digests(op, out)
        problems += [f"{key} digest differs from the recorded one" for key in expected if got.get(key) != expected[key]]
    return ("failed" if problems else "ok"), problems


def set_up(workload: str, seed: int):
    """Make the workload's inputs from the seed and warm up; returns its ops."""
    import primecover

    src = (ROOT / "src").resolve()
    if src not in Path(primecover.__file__).resolve().parents:
        raise SystemExit(f"error: primecover imported from {primecover.__file__}, not from {src}")
    spec = WORKLOADS[workload](seed)
    spec.make_inputs()
    for argv in spec.warmup:
        _, _, out = run_op(Op("warmup", None, argv=argv))
        if out.status != 0 or out.crash:
            raise SystemExit(f"error: warm-up {' '.join(argv)} failed: {out.crash or out.stderr.strip()}")
    return spec.ops


def run_passes(ops, seconds: int, trace: bool, meter: SpeedMeter) -> dict:
    """Whole passes until the next one would end past the deadline (at least two).

    With trace, odd passes run with the tracer installed and even passes
    without it, so the difference is the tracer's overhead.
    """
    tracer = None
    if trace:
        from perfbench.layers import Tracer

        tracer = Tracer()
    store = OutputStore()
    passes, spans = [], []
    deadline = time.perf_counter_ns() + seconds * 1_000_000_000
    clock_times = []
    while True:
        pass_start = time.perf_counter_ns()
        is_traced = tracer is not None and len(passes) % 2 == 1
        if is_traced:
            tracer.counts.clear()
            tracer.busy.clear()
            first_span = len(tracer.spans)
            tracer.install()
        results = []
        for op in ops:
            start, end, key = store.run(op)
            results.append({"name": op.name, "start": start, "end": end, "output": key})
        if is_traced:
            tracer.uninstall()
            spans.append({"spans": (first_span, len(tracer.spans)),
                          "counts": Counter(tracer.counts), "busy": Counter(tracer.busy)})
        passes.append({"traced": is_traced, "ops": results})
        now = time.perf_counter_ns()
        clock_times.append(now - pass_start)
        if len(passes) >= MIN_PASSES and now + sorted(clock_times)[len(clock_times) // 2] > deadline:
            break
    for p in passes:
        p["gross_ns"] = 0  # including the speed samples taken during the ops
        for r in p["ops"]:
            start, end = r.pop("start"), r.pop("end")
            r["ref_ns"], taken = meter.during(start, end)
            r["ns"] = end - start - taken
            p["gross_ns"] += end - start
        p["wall_ns"] = sum(r["ns"] for r in p["ops"])
        p["wall_ref"] = sum(r["ns"] / r["ref_ns"] for r in p["ops"])
    doc = {"passes": passes}
    if tracer is not None:
        from perfbench.layers import layer_metrics

        traced = [{**p, **s} for p, s in zip((p for p in passes if p["traced"]), spans)]
        untraced_walls = [p["wall_ref"] for p in passes if not p["traced"]]
        doc["layers"], doc["layer_self_s"] = layer_metrics(tracer, traced, untraced_walls)
        first = traced[0]["counts"]
        doc["counts_repeat"] = all(p["counts"] == first for p in traced)
        doc["counts"] = dict(first)
    return doc


def check_outputs(workload: str, seed: int) -> dict:
    """{output key: {"outcome", "problems"}} for every output the measuring child stored."""
    ops = {op.name: op for op in WORKLOADS[workload](seed).ops}
    recorded = json.loads(DIGESTS.read_text()).get(workload, {})
    verdicts = {}
    for path in sorted(OUTPUTS.glob("*.pkl")):
        name, out, _ = pickle.loads(path.read_bytes())
        copy = path.with_suffix(".file")
        if copy.is_file():
            out.file_bytes = copy.read_bytes()
        op = ops[name]
        expected = recorded.get(name) if (not op.seeded or seed == DEFAULT_SEED) else None
        outcome, problems = classify(op, out, expected)
        verdicts[path.stem] = {"outcome": outcome, "problems": problems}
    return {"verdicts": verdicts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--check", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    if args.check:
        doc = check_outputs(args.workload, args.seed)
    else:
        setup_start = time.perf_counter_ns()
        with SpeedMeter() as meter:
            meter.every(SETUP_INTERVAL_S)  # a short set-up still gets enough speed samples
            ops = set_up(args.workload, args.seed)
            ready = time.perf_counter_ns()
            meter.every(INTERVAL_S)
            ref_ns, taken_ns = meter.during(setup_start, ready)
            doc = {"setup_ns": ready - setup_start - taken_ns, "setup_ref_ns": ref_ns}
            if not args.setup_only:
                doc.update(run_passes(ops, args.seconds, bool(args.trace), meter))
                doc["ops"] = [{"name": op.name, "family": op.family} for op in ops]
        doc["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
