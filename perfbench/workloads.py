"""The three workloads: their inputs, their ops and how each op is checked.

An op is either a CLI invocation, run in-process through
`primecover.cli.main(argv)` with stdout and stderr captured, or a direct
library call for work the CLI cannot reach. Library functions are looked
up on their module at call time, so the traced run sees them wrapped.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

from perfbench import checks

DEFAULT_SEED = 1729
C_QUARTER = Fraction(1, 4)


@dataclass
class Outcome:
    status: int  # exit status; a library op that returned counts as 0
    stdout: str = ""
    stderr: str = ""
    result: Any = None  # return value of a library op
    crash: Optional[str] = None  # exception that escaped the entry point
    file_bytes: Optional[bytes] = None  # the op's written file, attached for checking


@dataclass(frozen=True)
class Op:
    """One timed operation of a workload.

    family names the end-to-end family metric the op's time counts in.
    seeded ops take input made from the workload seed, so their digests
    are only known for the default seed. defect is the stderr prefix of a
    known defect the op reproduces today; such an op is expected to fail
    that way until the defect is fixed.
    """

    name: str
    family: Optional[str]
    argv: Optional[tuple[str, ...]] = None
    call: Optional[Callable[[], Any]] = None
    out_file: Optional[str] = None
    seeded: bool = False
    check: Callable[[Outcome], list[str]] = lambda out: []
    defect: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    make_inputs: Callable[[], None]
    warmup: tuple[tuple[str, ...], ...]


def run_op(op: Op) -> tuple[int, int, Outcome]:
    """Run one op; returns perf_counter_ns at the start and end of the call alone, and its outcome."""
    clock = time.perf_counter_ns
    if op.call is not None:
        start = clock()
        try:
            result = op.call()
        except Exception as exc:  # a library op has no error surface: any escape is a crash
            return start, clock(), Outcome(1, crash=f"{type(exc).__name__}: {exc}")
        return start, clock(), Outcome(0, result=result)

    from primecover import cli

    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = clock()
        try:
            status = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects its input this way
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:
            status, crash = 1, f"{type(exc).__name__}: {exc}"
        end = clock()
    return start, end, Outcome(status, out.getvalue(), err.getvalue(), crash=crash)


@lru_cache(maxsize=None)  # input files do not change during a run
def _seq_numerators(path: str) -> dict[int, int]:
    return {p: a for p, a in json.loads(Path(path).read_text())["entries"]}


def _random_input(path: str, bound: int, seed: int) -> Callable[[], None]:
    def make() -> None:
        from primecover import sequences

        sequences.save_sequence(sequences.random_sequence(bound, C_QUARTER, seed), path)

    return make


# ------------------------------------------------------------------ build

def _build_op(name, family, method, bound, c, out_file, seed=None, epsilons=None):
    argv = ["seq", "build", "--method", method, "--bound", str(bound), "--c", c, "--out", out_file]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if epsilons:
        argv += ["--epsilons", ",".join(epsilons)]
    # the file records the random seed, or the blocks' restart seed (the CLI default)
    record_seed = {"random": seed, "blocks": DEFAULT_SEED}.get(method)

    def check(out: Outcome) -> list[str]:
        return checks.check_seq_build(out.stdout, out.file_bytes.decode(), method, c, bound,
                                      record_seed, epsilons)

    return Op(name, family, argv=tuple(argv), out_file=out_file, seeded=seed is not None, check=check)


def build(seed: int) -> Workload:
    """Construct sequences and write them: the sequences layer, write side."""
    ops = (
        # c = 1/4 never saturates the circle: every prime runs the full O(p) scan
        _build_op("greedy_unsat", "greedy_unsat_s", "greedy", 2000, "1/4", "greedy_c14.json"),
        # c = 1/2 saturates early: greedy and blocks take the short-circuit
        _build_op("greedy_sat", "greedy_sat_s", "greedy", 10_000, "1/2", "greedy_c12.json"),
        _build_op("blocks", "greedy_sat_s", "blocks", 100_000, "1/2", "blocks.json",
                  epsilons=["1/2", "1/4", "1/8"]),
        _build_op("random", None, "random", 1_000_000, "1/4", "random.json", seed=seed),
    )
    warmup = (("seq", "build", "--method", "greedy", "--bound", "50", "--c", "1/4", "--out", "warm.json"),)
    return Workload(ops, lambda: None, warmup)


# ------------------------------------------------------------------ exact

R5 = "r5.json"  # random sequence, c = 1/4, primes up to 1e5


def _levels_call():
    from primecover import sequences, sievelab

    seq = sequences.load_sequence(R5)
    return sievelab.alpha_and_markov(sievelab.level_sets(seq, 2, 50_000))


def _check_levels(out: Outcome) -> list[str]:
    report = out.result
    profile = report.profile
    return checks.check_level_report(profile.levels, profile.nu, report.omega_measure, report.markov_bound)


def _pair_op(p1: int, p2: int, c: Fraction) -> Op:
    def call():
        from primecover import sievelab

        return sievelab.pair_expectation(p1, p2, c)

    return Op(f"pair_{p1}_{p2}_c{c.numerator}{c.denominator}", "pair_s", call=call,
              check=lambda out: checks.check_pair(out.result, p1, p2, c))


def exact(seed: int) -> Workload:
    """Exact covering statistics: the arcs and sievelab layers."""
    ops = (
        # big-denominator accumulation; through the library because the CLI
        # cannot print a report this large today
        Op("levels", "levels_s", call=_levels_call, seeded=True, check=_check_levels),
        Op("sievelab_5000", None, argv=("sievelab", "--seq", R5, "--x", "2", "--y", "5000"),
           seeded=True, check=lambda out: checks.check_sievelab_json(out.stdout)),
        Op("coverage_1e4", None, argv=("coverage", "--seq", R5, "--x", "1", "--y", "10000"),
           seeded=True, check=lambda out: checks.check_unit_fraction(out.stdout)),
        # README scale; fails today on the 4300-digit int-to-str limit
        Op("sievelab_1e4", None, argv=("sievelab", "--seq", R5, "--x", "2", "--y", "10000"),
           seeded=True, check=lambda out: checks.check_sievelab_json(out.stdout),
           defect="error: Exceeds the limit (4300 digits) for integer string conversion"),
        # many small Fraction sorts, one per trial
        Op("mc", "mc_s", argv=("sievelab", "--x", "2", "--y", "5000", "--c", "1/4", "--mc", "50",
                               "--seed", str(seed)),
           seeded=True, check=lambda out: checks.check_mc(out.stdout, 50, seed)),
        # enumerations: the exact sweep and the pair expectations
        Op("expect_exact", "expect_exact_s",
           argv=("sievelab", "--x", "2", "--y", "300", "--c", "1/4", "--exact"),
           check=lambda out: checks.check_expectation(out.stdout)),
        _pair_op(97, 101, C_QUARTER),
        _pair_op(97, 101, Fraction(2, 7)),
        _pair_op(199, 211, C_QUARTER),
    )
    warmup = (("sievelab", "--x", "2", "--y", "7", "--c", "1/2", "--exact", "--mc", "2"),)
    return Workload(ops, _random_input(R5, 100_000, seed), warmup)


# ------------------------------------------------------------------ scan

R6 = "r6.json"  # random sequence, c = 1/4, primes up to 1e6


def _ergodic_op(name, x, bound, sparse=False, defect=None) -> Op:
    argv = ["ergodic", "--seq", R6, "--x", x, "--y", "0.7123", "--primes-up-to", str(bound)]
    if sparse:
        argv += ["--sparse", "geometric"]

    def check(out: Outcome) -> list[str]:
        primes = checks.sparse_primes(bound) if sparse else checks.primes_upto(bound)
        return checks.check_ergodic_csv(out.stdout, _seq_numerators(R6), C_QUARTER, primes)

    return Op(name, "ergodic_s", argv=tuple(argv), seeded=True, check=check, defect=defect)


def scan(seed: int) -> Workload:
    """Per-prime scans at large bounds: primes, hits, ergodic, CSV output."""
    hits = ("hits", "--seq", R6, "--x-named", "sqrt2", "--eta", "1e-16")
    ops = (
        Op("sieve", "sieve_s", argv=("primes", "--bound", "10000000"),
           check=lambda out: [] if json.loads(out.stdout)["count"] == checks.PRIMES_UP_TO_1E7
           else ["wrong prime count"]),
        Op("hits_json", "hits_s", argv=hits + ("--bound", "1000000"), seeded=True,
           check=lambda out: checks.check_hits_json(out.stdout, _seq_numerators(R6), C_QUARTER, 1_000_000)),
        Op("hits_csv", "hits_s", argv=hits + ("--bound", "100000", "--format", "csv"), seeded=True,
           check=lambda out: checks.check_hits_csv(out.stdout, _seq_numerators(R6), C_QUARTER, 100_000)),
        Op("fracparts", "fracparts_s",
           argv=("fracparts", "--x-named", "golden", "--eta", "1e-16", "--c", "1/4", "--bound", "1000000"),
           check=lambda out: checks.check_fracparts_json(out.stdout, 1_000_000)),
        _ergodic_op("ergodic_dense", "0.3", 1_000_000),
        _ergodic_op("ergodic_sparse", "0.3", 1_000_000, sparse=True),
        # "num/den" is rejected here though every other subcommand takes it; a
        # small bound keeps the op cheap once that is fixed
        _ergodic_op("ergodic_rational", "1/3", 10_000,
                    defect="error: could not convert string to float: '1/3'"),
    )
    warmup = (("primes", "--bound", "1000"),)
    return Workload(ops, _random_input(R6, 1_000_000, seed), warmup)


WORKLOADS = {"build": build, "exact": exact, "scan": scan}
