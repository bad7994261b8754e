"""Command-line surface: reproducible experiments with JSON/CSV reports.

Each subcommand's handler reads the parsed `argparse.Namespace` and
returns its output text. Every run is determined by its arguments (seeds
included), so identical invocations produce byte-identical output.
Rationals cross the boundary as "num/den" strings; floats appear only in
explicitly floating-point fields such as Monte Carlo means and |s_p|.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from itertools import filterfalse
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .arcs import checked_c, rat_str, to_fraction
from .ergodic import ergodic_rows, sparse_prime_set
from .fanout import map_chunks
from .hits import (
    NAMED_APPROXIMANTS,
    Classified,
    HitReport,
    approximant_named,
    fractional_classes,
    fractional_hits,
    hit_classes,
    hit_primes,
    rational_point,
)
from .primes import prime_count, sieve_range
from .sequences import (
    DEFAULT_SEED,
    block_construction,
    constant_sequence,
    greedy_sequence,
    load_sequence,
    random_sequence,
    schedule_rows,
    sequence_text,
    uncovered_measure,
)
from .sievelab import (
    alpha_and_markov,
    level_sets,
    omega_expectation_exact,
    omega_expectation_mc,
)

DEFAULT_ETA = "1e-14"


class CliError(Exception):
    """Invalid configuration; message is printed as `error: ...`."""


def _parse_c(text: str) -> Fraction:
    try:
        return checked_c(text)
    except ValueError:
        raise CliError("c must be in (0,1/2]") from None


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _load_seq(args: argparse.Namespace):
    if not Path(args.seq_path).is_file():
        raise CliError("sequence file not found")
    return load_sequence(args.seq_path)


def _point(args: argparse.Namespace):
    if (args.x is None) == (args.x_named is None):
        raise CliError("give exactly one of --x or --x-named")
    if args.x_named is not None:
        return approximant_named(args.x_named, args.eta or DEFAULT_ETA)
    if args.eta is not None:
        raise CliError("--eta needs --x-named")
    return rational_point(args.x)


def cmd_primes(args: argparse.Namespace) -> str:
    if not args.list_primes:
        return _json_text({"bound": args.bound, "count": prime_count(args.bound)})
    primes = sieve_range(args.bound)
    return _json_text({"bound": args.bound, "count": len(primes), "primes": list(primes)})


def cmd_seq_build(args: argparse.Namespace) -> str:
    if args.epsilons is not None and args.method != "blocks":
        raise CliError("--epsilons needs --method blocks")
    if args.seed is not None and args.method != "random":
        raise CliError("--seed needs --method random")
    schedule = None
    if args.method == "greedy":
        seq = greedy_sequence(args.bound, args.c)
    elif args.method == "random":
        seq = random_sequence(args.bound, args.c, DEFAULT_SEED if args.seed is None else args.seed)
    elif args.method == "constant":
        seq = constant_sequence(args.bound, args.c)
    else:
        if not args.epsilons:
            raise CliError("blocks method needs --epsilons")
        seq, schedule = block_construction(args.epsilons, args.c, args.bound)
    _write_out(args.out_path, sequence_text(seq, schedule))
    summary = {
        "out": args.out_path,
        "method": seq.method,
        "c": rat_str(seq.c),
        "seed": seq.seed,
        "entries": len(seq.entries),
    }
    if schedule is not None:
        summary["blocks"] = schedule_rows(schedule)
    return _json_text(summary)


def cmd_coverage(args: argparse.Namespace) -> str:
    seq = _load_seq(args)
    value = uncovered_measure(seq, to_fraction(args.x), to_fraction(args.y))
    return rat_str(value) + "\n"


def cmd_sievelab(args: argparse.Namespace) -> str:
    if args.seq_path is not None and args.c is not None:
        raise CliError("give --seq or --c, not both")
    if args.seed is not None and args.trials is None:
        raise CliError("--seed needs --mc")
    x, y = to_fraction(args.x), to_fraction(args.y)
    if args.seq_path is not None:
        seq = _load_seq(args)
        doc = alpha_and_markov(level_sets(seq, x, y)).to_dict()
        doc["mode"] = "exact"
        c = seq.c
    else:
        if args.c is None:
            raise CliError("give --seq or --c")
        c = args.c
        doc = {"x": rat_str(x), "y": rat_str(y), "c": rat_str(c), "mode": "exact"}
        if not args.exact and args.trials is None:
            raise CliError("without --seq, give --exact and/or --mc")
    if args.exact:
        doc["omega_expectation"] = rat_str(omega_expectation_exact(x, y, c))
    if args.trials is not None:
        seed = DEFAULT_SEED if args.seed is None else args.seed
        mean, stderr = omega_expectation_mc(x, y, c, args.trials, seed)
        doc["mc"] = {"mean": mean, "stderr": stderr, "trials": args.trials, "seed": seed}
    return _json_text(doc)


def _hit_csv(classes: Iterator[Classified]) -> str:
    """One row per classified prime, the distance reduced to lowest terms."""
    lines = ["p,distance_num,distance_den,hit,ambiguous\n"]
    for p, n, den, hit, ambiguous in classes:
        g = math.gcd(n, den)
        lines.append(f"{p},{n // g},{den // g},{hit:d},{ambiguous:d}\n")
    return "".join(lines)


def _hit_json(report: HitReport, label: str, c: Fraction) -> str:
    return _json_text(
        {
            "bound": report.bound,
            "c": rat_str(c),
            "x": label,
            "hits": list(report.hits),
            "ambiguous": list(report.ambiguous),
            "heuristic": report.heuristic,
            "ratio": report.ratio,
            "hit_reciprocal_sum": report.hit_reciprocal_sum,
        }
    )


def cmd_hits(args: argparse.Namespace) -> str:
    seq = _load_seq(args)
    point = _point(args)
    if args.out_format == "csv":
        return _hit_csv(hit_classes(point, seq, args.bound))
    report = hit_primes(point, seq, args.bound)
    return _hit_json(report, point.label, seq.c)


def cmd_fracparts(args: argparse.Namespace) -> str:
    point = _point(args)
    if args.out_format == "csv":
        return _hit_csv(fractional_classes(point, args.c, args.bound))
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
        raise CliError(f"{text!r} is too large for a float") from None


def _ergodic_csv(seq, x: float, y: float, primes: Sequence[int]) -> str:
    return "".join(
        f"{p},{a},{distance!r},{abs(s)!r},{is_hit:d},{method}\n"
        for p, a, distance, s, method, is_hit in ergodic_rows(seq, x, y, primes)
    )


def cmd_ergodic(args: argparse.Namespace) -> str:
    seq = _load_seq(args)
    x, y = _float_arg(args.x), _float_arg(args.y)
    if args.sparse is not None:
        primes = sparse_prime_set(args.primes_up_to, args.sparse).primes
    else:
        primes = sieve_range(args.primes_up_to)
    # fail before any row: the first listed prime that the sequence lacks (the
    # smallest, as the primes ascend) raises the error its row would
    missing = next(filterfalse(seq.numerators.__contains__, primes), None)
    if missing is not None:
        seq.numerator_for(missing)
    chunks = map_chunks(functools.partial(_ergodic_csv, seq, x, y), primes)
    return "".join(["p,a_p,d,abs_s,is_hit,method\n", *chunks])


def _write_out(path: str, text: str) -> None:
    """Write text to path all at once or not at all.

    The text goes to a temporary file in the target's directory, which
    then replaces the target by one rename, so a failed write leaves
    neither a partial file nor a truncated old one. The file gets the
    mode a plain open would give it (0o666 less the umask).
    """
    target = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None


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
    b.add_argument("--out", required=True, dest="out_path")

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
    e.add_argument("--sparse", choices=["geometric", "psi"],
                   help="geometric: least prime above 4^n; psi: least prime above 2^n")
    e.add_argument("--out", dest="out_path")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "c", None) is not None:
            args.c = _parse_c(args.c)
        if getattr(args, "eta", None) is not None:
            args.eta = to_fraction(args.eta)
            if args.eta <= 0:
                raise CliError("eta must be > 0")
        if getattr(args, "epsilons", None):
            args.epsilons = [to_fraction(part) for part in args.epsilons.split(",")]
        if getattr(args, "bound", 2) < 2:
            raise CliError("bound must be >= 2")
        text = _HANDLERS[args.command](args)
        # seq build writes its --out file itself and prints a summary
        if args.command != "seq" and getattr(args, "out_path", None) is not None:
            _write_out(args.out_path, text)
            return 0
    except (CliError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
