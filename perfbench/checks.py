"""Output checks that hold for every workload seed.

Every check here uses only the standard library, never primecover itself,
so a check is an independent oracle and never shows up in the traced
run's counters. A check returns a list of problems; empty means correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

PRIMES_UP_TO_1E7 = 664_579


@lru_cache(maxsize=None)
def primes_upto(n: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return tuple(i for i, f in enumerate(flags) if f)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def int_bytes(n: int) -> bytes:
    """Exact bytes of an int; never converts it to decimal text."""
    return n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True)


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def fraction_digest(values) -> str:
    """Digest of a sequence of Fractions, whatever their size."""
    parts = []
    for q in values:
        parts += [int_bytes(q.numerator), int_bytes(q.denominator)]
    return digest(*parts)


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# ---------------------------------------------------------------- sequences

def check_sequence_file(text: str, method: str, c: str, bound: int, seed) -> list[str]:
    """A written sequence file: one valid numerator for each prime in order."""
    problems: list[str] = []
    doc = json.loads(text)
    _expect(problems, doc["method"] == method, f"method {doc['method']!r}")
    _expect(problems, doc["c"] == c, f"c {doc['c']!r}")
    _expect(problems, doc["seed"] == seed, f"seed {doc['seed']!r}, expected {seed!r}")
    entries = doc["entries"]
    primes = primes_upto(bound)
    _expect(problems, [p for p, _ in entries] == list(primes[: len(entries)]),
            "entries are not the primes in ascending order")
    _expect(problems, all(0 <= a < p for p, a in entries), "numerator out of range")
    if "blocks" not in doc:
        _expect(problems, len(entries) == len(primes), f"{len(entries)} entries for {len(primes)} primes")
    return problems


def check_blocks(blocks, epsilons: list[str], last_prime: int) -> list[str]:
    """Every block is certified (achieved_uncovered <= epsilon) and they tile the range."""
    problems: list[str] = []
    _expect(problems, [b[2] for b in blocks] == epsilons, f"block targets {[b[2] for b in blocks]}")
    start = 1
    for b_start, b_end, eps, achieved in blocks:
        _expect(problems, b_start == start and b_end > b_start, f"block ({b_start}, {b_end}] does not follow {start}")
        _expect(problems, Fraction(achieved) <= Fraction(eps), f"block ({b_start}, {b_end}] uncovered {achieved} > {eps}")
        start = b_end
    _expect(problems, start == last_prime, f"blocks end at {start}, entries at {last_prime}")
    return problems


def check_seq_build(stdout: str, file_text: str, method: str, c: str, bound: int, seed,
                    epsilons: list[str] | None = None) -> list[str]:
    summary = json.loads(stdout)
    problems = check_sequence_file(file_text, method, c, bound, seed)
    doc = json.loads(file_text)
    _expect(problems, summary["entries"] == len(doc["entries"]), "summary entry count differs from the file")
    _expect(problems, (summary["method"], summary["c"], summary["seed"]) == (method, c, seed),
            "summary method, c or seed differs")
    if epsilons is not None:
        _expect(problems, summary.get("blocks") == doc.get("blocks"), "summary blocks differ from the file")
        problems += check_blocks(doc.get("blocks", []), epsilons, doc["entries"][-1][0])
    return problems


# ---------------------------------------------------------------- sievelab

def check_level_report(levels: dict[int, Fraction], nu: Fraction, omega: Fraction,
                       markov: Fraction | None) -> list[str]:
    """The exact identities: measures sum to 1, mean is nu, omega <= Markov bound."""
    problems: list[str] = []
    _expect(problems, sum(levels.values(), Fraction(0)) == 1, "level measures do not sum to 1")
    _expect(problems, sum((k * m for k, m in levels.items()), Fraction(0)) == nu, "mean count differs from nu")
    _expect(problems, omega == levels.get(0, Fraction(0)), "omega_measure differs from the level-0 measure")
    _expect(problems, markov is not None and omega <= markov, "omega_measure exceeds the Markov bound")
    return problems


def check_sievelab_json(stdout: str) -> list[str]:
    doc = json.loads(stdout)
    levels = {int(k): Fraction(v) for k, v in doc["levels"].items()}
    markov = None if doc["markov_bound"] == "inf" else Fraction(doc["markov_bound"])
    return check_level_report(levels, Fraction(doc["nu"]), Fraction(doc["omega_measure"]), markov)


def check_unit_fraction(text: str) -> list[str]:
    value = Fraction(text.strip())
    return [] if 0 <= value <= 1 else [f"measure {text.strip()} outside [0, 1]"]


def check_mc(stdout: str, trials: int, seed: int) -> list[str]:
    mc = json.loads(stdout)["mc"]
    problems: list[str] = []
    _expect(problems, 0 <= mc["mean"] <= 1 and mc["stderr"] >= 0, f"mean {mc['mean']}, stderr {mc['stderr']}")
    _expect(problems, (mc["trials"], mc["seed"]) == (trials, seed), f"trials/seed {mc['trials']}/{mc['seed']}")
    return problems


def check_expectation(stdout: str) -> list[str]:
    return check_unit_fraction(json.loads(stdout)["omega_expectation"])


def check_pair(value: Fraction, p1: int, p2: int, c: Fraction) -> list[str]:
    """The documented bound |E - 4c^2/(p1 p2)| <= 2/p2^2."""
    if abs(value - 4 * c * c / (p1 * p2)) <= Fraction(2, p2 * p2):
        return []
    return [f"pair expectation {float(value)!r} too far from 4c^2/(p1 p2)"]


# ---------------------------------------------------------------- hits

def sqrt2_hit(p: int, a: int, c: Fraction) -> bool:
    """Exact: circle distance from sqrt(2) to a/p is at most c/p.

    That is |p*sqrt(2) - m| <= c for the nearest integers m = r, r + 1
    (r = floor(p*sqrt(2))) with m = a mod p; sqrt(2)*p is irrational, so no tie.
    """
    r = math.isqrt(2 * p * p)
    cn, cd = c.numerator, c.denominator
    if r % p == a and 2 * p * p * cd * cd <= (r * cd + cn) ** 2:
        return True
    low = (r + 1) * cd - cn
    return (r + 1) % p == a and (low <= 0 or low * low <= 2 * p * p * cd * cd)


def golden_fracpart_hit(p: int) -> bool:
    """Exact: {phi * p} < 1/4, i.e. floor(4 phi p) = 2p + floor(sqrt(20 p^2)) is 0 mod 4."""
    return (2 * p + math.isqrt(20 * p * p)) % 4 == 0


def check_hits_json(stdout: str, numerators: dict[int, int], c: Fraction, bound: int) -> list[str]:
    doc = json.loads(stdout)
    problems: list[str] = []
    _expect(problems, doc["ambiguous"] == [], f"{len(doc['ambiguous'])} ambiguous sqrt2 primes")
    oracle = [p for p in primes_upto(bound) if sqrt2_hit(p, numerators[p], c)]
    _expect(problems, doc["hits"] == oracle, f"hits {doc['hits'][:5]}..., exact oracle {oracle[:5]}...")
    _expect(problems, doc["bound"] == bound and doc["heuristic"] > 0, "bound or heuristic")
    return problems


def check_hits_csv(stdout: str, numerators: dict[int, int], c: Fraction, bound: int) -> list[str]:
    rows = list(csv.reader(io.StringIO(stdout)))
    problems: list[str] = []
    _expect(problems, rows[0] == ["p", "distance_num", "distance_den", "hit", "ambiguous"], "header")
    body = rows[1:]
    primes = primes_upto(bound)
    _expect(problems, [int(r[0]) for r in body] == list(primes), "rows are not the primes up to the bound")
    _expect(problems, all(r[4] == "0" for r in body), "ambiguous sqrt2 rows")
    wrong = [r[0] for r in body if (r[3] == "1") != sqrt2_hit(int(r[0]), numerators[int(r[0])], c)]
    _expect(problems, not wrong, f"hit column wrong for primes {wrong[:5]}")
    return problems


def check_fracparts_json(stdout: str, bound: int) -> list[str]:
    doc = json.loads(stdout)
    problems: list[str] = []
    oracle = [p for p in primes_upto(bound) if golden_fracpart_hit(p)]
    _expect(problems, doc["ambiguous"] == [], f"{len(doc['ambiguous'])} ambiguous golden primes")
    _expect(problems, doc["hits"] == oracle, f"{len(doc['hits'])} hits, exact oracle {len(oracle)}")
    return problems


# ---------------------------------------------------------------- ergodic

def sparse_primes(bound: int) -> list[int]:
    """Least prime above 4^n for n >= 1, up to bound."""
    out, n = [], 1
    while True:
        p = 4**n + 1
        while not _is_prime(p):
            p += 1
        if p > bound:
            return out
        out.append(p)
        n += 1


def check_ergodic_csv(stdout: str, numerators: dict[int, int], c: Fraction, primes) -> list[str]:
    rows = list(csv.reader(io.StringIO(stdout)))
    problems: list[str] = []
    _expect(problems, rows[0] == ["p", "a_p", "d", "abs_s", "is_hit", "method"], "header")
    body = rows[1:]
    _expect(problems, [int(r[0]) for r in body] == list(primes), "rows are not the requested primes")
    cf = float(c)
    bad = [
        r[0] for r in body
        if int(r[1]) != numerators[int(r[0])]
        or not 0 <= float(r[3]) <= 1 + 1e-9
        or (r[4] == "1") != (int(r[0]) * float(r[2]) <= cf)
        or r[5] not in ("closed", "direct")
    ]
    _expect(problems, not bad, f"inconsistent rows for primes {bad[:5]}")
    return problems
