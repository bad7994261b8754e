"""Command-line surface: reproducible experiments with JSON/CSV reports.

Each subcommand's handler reads the parsed `argparse.Namespace` and
returns its output text, JSON by `sequences._json_text`. `main` writes
that text to --out, and `seq build` writes its file, through
`sequences.write_atomically`.
Every run is determined by its arguments (seeds included), so identical
invocations produce byte-identical output.
Rationals cross the boundary as "num/den" strings; floats appear only in
explicitly floating-point fields such as Monte Carlo means and |s_p|.
Invalid input raises ValueError, in the handlers and in the library
alike, and `main` prints it as one `error:` line and returns 1. `main`
applies the library's checks of c and of every sieve bound before any
file is read, and passes every other value to the library as given.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .arcs import checked_c, checked_range, rat_str, to_fraction
from .ergodic import SPARSE_BASES, ErgodicRow, ergodic_rows, sparse_prime_set
from .hits import (
    CLASSIFY_WORK,
    DEFAULT_NAMED_ETA,
    NAMED_APPROXIMANTS,
    Classified,
    HitReport,
    approximant_named,
    check_eta,
    classify_fractional,
    classify_hits,
    fractional_hits,
    hit_primes,
    rational_point,
)
from .primes import _check_bound, map_prime_intervals, prime_count, primes_between, sieve_range
from .sequences import (
    DEFAULT_SEED,
    _frame,
    _json_text,
    block_construction,
    constant_sequence,
    greedy_sequence,
    load_sequence,
    random_sequence,
    save_sequence,
    uncovered_measure,
    write_atomically,
)
from .sievelab import (
    alpha_and_markov,
    level_sets,
    omega_expectation_exact,
    omega_expectation_mc,
)

DEFAULT_ETA = f"{float(DEFAULT_NAMED_ETA):g}"  # the --eta help text


def _load_seq(args: argparse.Namespace):
    if not Path(args.seq_path).is_file():
        raise ValueError("sequence file not found")
    return load_sequence(args.seq_path)


def _point(args: argparse.Namespace):
    if (args.x is None) == (args.x_named is None):
        raise ValueError("give exactly one of --x or --x-named")
    if args.x_named is not None:
        return approximant_named(args.x_named, DEFAULT_NAMED_ETA if args.eta is None else args.eta)
    if args.eta is not None:
        raise ValueError("--eta needs --x-named")
    return rational_point(args.x)


def cmd_primes(args: argparse.Namespace) -> str:
    if not args.list_primes:
        return _json_text({"bound": args.bound, "count": prime_count(args.bound)})
    primes = sieve_range(args.bound)
    return _json_text({"bound": args.bound, "count": len(primes), "primes": primes})


def cmd_seq_build(args: argparse.Namespace) -> str:
    if args.epsilons is not None and args.method != "blocks":
        raise ValueError("--epsilons needs --method blocks")
    if args.seed is not None and args.method != "random":
        raise ValueError("--seed needs --method random")
    schedule = None
    if args.method == "greedy":
        seq = greedy_sequence(args.bound, args.c)
    elif args.method == "random":
        seq = random_sequence(args.bound, args.c, DEFAULT_SEED if args.seed is None else args.seed)
    elif args.method == "constant":
        seq = constant_sequence(args.bound, args.c)
    else:
        if not args.epsilons:
            raise ValueError("blocks method needs --epsilons")
        seq, schedule = block_construction(args.epsilons.split(","), args.c, args.bound)
    save_sequence(seq, args.seq_out, schedule)
    return _json_text({**_frame(seq, schedule), "entries": len(seq.entries), "out": args.seq_out})


def cmd_coverage(args: argparse.Namespace) -> str:
    seq = _load_seq(args)
    value = uncovered_measure(seq, args.x, args.y)
    return rat_str(value) + "\n"


def cmd_sievelab(args: argparse.Namespace) -> str:
    if args.seq_path is not None and args.c is not None:
        raise ValueError("give --seq or --c, not both")
    if args.seed is not None and args.trials is None:
        raise ValueError("--seed needs --mc")
    x, y = checked_range(args.x, args.y)  # before x or y is formatted
    if args.seq_path is not None:
        seq = _load_seq(args)
        doc = alpha_and_markov(level_sets(seq, x, y)).to_dict()
        c = seq.c
    else:
        if args.c is None:
            raise ValueError("give --seq or --c")
        c = args.c
        doc = {"x": rat_str(x), "y": rat_str(y), "c": rat_str(c)}
        if not args.exact and args.trials is None:
            raise ValueError("without --seq, give --exact and/or --mc")
    doc["mode"] = "exact"
    if args.exact:
        doc["omega_expectation"] = rat_str(omega_expectation_exact(x, y, c))
    if args.trials is not None:
        seed = DEFAULT_SEED if args.seed is None else args.seed
        mean, stderr = omega_expectation_mc(x, y, c, args.trials, seed)
        doc["mc"] = {"mean": mean, "stderr": stderr, "trials": args.trials, "seed": seed}
    return _json_text(doc)


def _hit_csv(classes_between: Callable[[int, int], Iterable[Classified]], bound: int) -> str:
    """One row per prime up to bound; each interval (lo, hi] is classified in its own process."""
    # a classification with its CSV row takes 0.86-1.38 us, 2.4-3.2 times one
    # without (serial medians on the VM of hits.CLASSIFY_WORK). The old weight
    # of 2/3 forked from 66,643, where a split lost to serial in every one of
    # 3 rounds of 15 interleaved pairs (12 ms against 8); at 1/2 the CSV forks
    # on two CPUs from 91,383, where a split was faster in 7 to 10 of 15 pairs
    rows = map_prime_intervals(
        lambda lo, hi: _hit_rows(classes_between(lo, hi)), bound, 4 * CLASSIFY_WORK
    )
    return "".join(["p,distance_num,distance_den,hit,ambiguous\n", *rows])


# the end of a hits CSV row, after the distance, for each (hit, ambiguous)
_HIT_TAILS = {(hit, ambiguous): f",{hit:d},{ambiguous:d}\n"
              for hit in (False, True) for ambiguous in (False, True)}


def _hit_rows(classes: Iterable[Classified]) -> str:
    """A row per classified prime, the distance reduced to lowest terms."""
    lines = []
    for p, n, den, hit, ambiguous in classes:
        g = math.gcd(n, den)
        lines.append(f"{p},{n // g},{den // g}{_HIT_TAILS[hit, ambiguous]}")
    return "".join(lines)


def _hit_json(report: HitReport, label: str, c: Fraction) -> str:
    return _json_text({**vars(report), "c": rat_str(c), "x": label})


def cmd_hits(args: argparse.Namespace) -> str:
    seq = _load_seq(args)
    point = _point(args)
    if args.out_format == "csv":
        return _hit_csv(lambda lo, hi: classify_hits(point, seq.c, *seq.scan(lo, hi)), args.bound)
    report = hit_primes(point, seq, args.bound)
    return _hit_json(report, point.label, seq.c)


def cmd_fracparts(args: argparse.Namespace) -> str:
    point = _point(args)
    if args.out_format == "csv":
        check_eta(point, args.bound)
        return _hit_csv(
            lambda lo, hi: classify_fractional(point, args.c, primes_between(lo, hi)), args.bound
        )
    report = fractional_hits(point, args.c, args.bound)
    return _hit_json(report, point.label, args.c)


def _float_arg(text: str) -> float:
    """A number in any form the other subcommands take ("0.3", "1/3"), as a float.

    Both float(str) and float(Fraction) round correctly, so a decimal string
    gives exactly float(string).
    """
    try:
        return float(to_fraction(text))
    except OverflowError:
        raise ValueError(f"{text!r} is too large for a float") from None


# the end of an ergodic CSV row, after |s|, for each (method, is_hit)
_ERGODIC_TAILS = {(method, is_hit): f",{is_hit:d},{method}\n"
                  for method in ("closed", "direct") for is_hit in (False, True)}


def _ergodic_csv(rows: Iterable[ErgodicRow]) -> str:
    return "".join(
        f"{p},{a},{distance!r},{abs(s)!r}{_ERGODIC_TAILS[method, is_hit]}"
        for p, a, distance, s, method, is_hit in rows
    )


def cmd_ergodic(args: argparse.Namespace) -> str:
    seq = _load_seq(args)
    x, y = _float_arg(args.x), _float_arg(args.y)
    if args.sparse is not None:
        primes = sparse_prime_set(args.primes_up_to, args.sparse).primes
        rows = [_ergodic_csv(ergodic_rows(seq.c, x, y, primes, seq.numerators_of(primes)))]
    else:
        # the earliest interval's error is raised, so a missing prime is named
        # as the serial run names it: the smallest one. A row weighs 1, the
        # evaluation fanout.MIN_CHUNK counts in, so on two CPUs the scan
        # forks from 42,643 primes
        rows = map_prime_intervals(
            lambda lo, hi: _ergodic_csv(ergodic_rows(seq.c, x, y, *seq.scan(lo, hi))),
            args.primes_up_to,
            1,
        )
    return "".join(["p,a_p,d,abs_s,is_hit,method\n", *rows])


# the handler of each subcommand, looked up when main runs (a module-level
# dict, so a wrapper put into it is the function main calls)
_HANDLERS = {
    "primes": cmd_primes,
    "seq": cmd_seq_build,
    "coverage": cmd_coverage,
    "sievelab": cmd_sievelab,
    "hits": cmd_hits,
    "fracparts": cmd_fracparts,
    "ergodic": cmd_ergodic,
}


@functools.cache  # built once per process; parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primecover",
        description="Experiments in rational approximation with one numerator per prime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("primes", help="count (and list) primes up to a bound")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--list", action="store_true", dest="list_primes")

    s = sub.add_parser("seq", help="build a numerator sequence file")
    s_sub = s.add_subparsers(dest="seq_command", required=True)
    b = s_sub.add_parser("build")
    b.add_argument("--method", required=True, choices=["random", "greedy", "blocks", "constant"])
    b.add_argument("--bound", type=int, required=True)
    b.add_argument("--c", required=True)
    b.add_argument("--seed", type=int, help=f"random only (default {DEFAULT_SEED})")
    b.add_argument("--epsilons", help="comma-separated targets, e.g. 1/2,1/4,1/8")
    b.add_argument("--out", required=True, dest="seq_out", metavar="OUT_PATH")

    cov = sub.add_parser("coverage", help="exact uncovered measure of a prime range")
    cov.add_argument("--seq", required=True, dest="seq_path")
    cov.add_argument("--x", required=True)
    cov.add_argument("--y", required=True)

    lab = sub.add_parser("sievelab", help="level sets, Markov bound, uncovered expectation")
    lab.add_argument("--seq", dest="seq_path")
    lab.add_argument("--c")
    lab.add_argument("--x", required=True)
    lab.add_argument("--y", required=True)
    lab.add_argument("--exact", action="store_true")
    lab.add_argument("--mc", type=int, dest="trials")
    lab.add_argument("--seed", type=int, help=f"with --mc only (default {DEFAULT_SEED})")
    lab.add_argument("--out", dest="out_path")

    h = sub.add_parser("hits", help="hit primes of x against a sequence")
    h.add_argument("--seq", required=True, dest="seq_path")
    h.add_argument("--x")
    h.add_argument("--x-named", choices=NAMED_APPROXIMANTS, dest="x_named")
    h.add_argument("--eta", help=f"with --x-named only (default {DEFAULT_ETA})")
    h.add_argument("--bound", type=int, required=True)
    h.add_argument("--format", choices=["json", "csv"], default="json", dest="out_format")
    h.add_argument("--out", dest="out_path")

    f = sub.add_parser("fracparts", help="primes with fractional part of x*p below c")
    f.add_argument("--x")
    f.add_argument("--x-named", choices=NAMED_APPROXIMANTS, dest="x_named")
    f.add_argument("--eta", help=f"with --x-named only (default {DEFAULT_ETA})")
    f.add_argument("--c", required=True)
    f.add_argument("--bound", type=int, required=True)
    f.add_argument("--format", choices=["json", "csv"], default="json", dest="out_format")
    f.add_argument("--out", dest="out_path")

    e = sub.add_parser("ergodic", help="twisted averages along primes, CSV")
    e.add_argument("--seq", required=True, dest="seq_path")
    e.add_argument("--x", required=True)
    e.add_argument("--y", required=True)
    e.add_argument("--primes-up-to", type=int, required=True, dest="primes_up_to")
    e.add_argument("--sparse", choices=SPARSE_BASES, help="; ".join(
        f"{mode}: least prime above {base}^n" for mode, base in SPARSE_BASES.items()))
    e.add_argument("--out", dest="out_path")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "c", None) is not None:
            args.c = checked_c(args.c)
        for name in ("bound", "primes_up_to"):  # every sieve bound, before any file is read
            if hasattr(args, name):
                _check_bound(getattr(args, name))
        text = _HANDLERS[args.command](args)
        if getattr(args, "out_path", None) is not None:
            write_atomically(args.out_path, (text,))
            return 0
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
