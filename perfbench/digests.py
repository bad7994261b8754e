"""Record the output digests the benchmark compares against.

    python3 perfbench/digests.py

Runs every op of every workload once at the default seed, checks each
output, and writes the sha256 of each op's stdout, written file or exact
library result to perfbench/digests.json. Ops whose output depends on the
seed are compared only at the default seed; the others at every seed.
Re-record only when an output is meant to change, and say why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench.child import DIGESTS, classify, output_digests, set_up  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, run_op  # noqa: E402


def main() -> int:
    recorded = {}
    work = ROOT / ".bench_work" / f"digests-{os.getpid()}"
    try:
        for workload in WORKLOADS:
            workdir = work / workload
            workdir.mkdir(parents=True)
            os.chdir(workdir)
            recorded[workload] = {}
            for op in set_up(workload, DEFAULT_SEED):
                _, _, out = run_op(op)
                if op.out_file is not None:
                    out.file_bytes = Path(op.out_file).read_bytes()
                outcome, problems = classify(op, out, None)
                print(f"{workload}.{op.name}: {outcome} {' '.join(problems)}", file=sys.stderr)
                if outcome == "ok":
                    recorded[workload][op.name] = output_digests(op, out)
                elif outcome != "known_defect":
                    return 1
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
