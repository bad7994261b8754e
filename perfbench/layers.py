"""Spans and counters around the public functions of primecover's modules.

Used only by the traced run. `Tracer.install` replaces each public
function of the seven layer modules at every place it is bound: its own
module, each module that imported it by name (`from .primes import
sieve_range` copies the name into four modules), and module-level dicts
such as the CLI dispatch table. It also counts the segments that the
method `Arc.segments` returns. `Tracer.uninstall` puts the originals
back, so untraced passes run the unmodified program.

A span records (name, wrapper start, call start, call end, wrapper end,
parent index). The gap between wrapper and call bounds is the tracer's own
bookkeeping, charged to no layer. A layer's self time is the length of its
spans minus the wrapper intervals of their child spans.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter
from statistics import median

LAYERS = ("primes", "arcs", "sequences", "sievelab", "hits", "ergodic", "cli")

# Called once per prime, arc or placement: a call counter and no span, so
# the overhead stays low. Their time counts in the caller's self time.
COUNTER_ONLY = {
    "arcs.arc_of",
    "arcs.to_fraction",
    "arcs.intersect_measure",
    "primes.is_prime",
    "hits.circle_distance",
    "ergodic.reduce_offset",
    "ergodic.s_direct",
    "ergodic.s_closed",
}


def _wraps_zero(arc) -> bool:
    """left + length > 1, in integers (cheaper than Fraction arithmetic)."""
    left, length = arc.left, arc.length
    ld, nd = left.denominator, length.denominator
    return left.numerator * nd + length.numerator * ld > ld * nd


# Hooks derive counts from a call's bound arguments and return value.
# counts must repeat exactly from pass to pass; busy holds nanoseconds.

def _sieve(counts, busy, args, result, ns):
    counts["primes.calls"] += 1
    counts["primes.numbers_sieved"] += args["bound"]


def _normalize(counts, busy, args, result, ns):
    arcs = args["arcs"]
    counts["arcs.normalize_calls"] += 1
    counts["arcs.segments_in"] += len(arcs) + sum(map(_wraps_zero, arcs))


def _greedy(counts, busy, args, result, ns):
    seq = result[0] if isinstance(result, tuple) else result
    counts["sequences.greedy_primes"] += len(seq.entries)
    busy["sequences.greedy"] += ns


def _io(counts, busy, args, result, ns):
    seq = result if result is not None else args["seq"]
    counts["sequences.io_entries"] += len(seq.entries)
    busy["sequences.io"] += ns


def _levels(counts, busy, args, result, ns):
    bits = max(m.denominator.bit_length() for m in result.levels.values())
    counts["sievelab.max_den_bits"] = max(counts["sievelab.max_den_bits"], bits)


def _mc(counts, busy, args, result, ns):
    counts["sievelab.mc_trials"] += args["trials"]
    busy["sievelab.mc"] += ns


def _rows(counts, busy, args, result, ns):
    counts["hits.rows"] += len(result)
    counts["hits.ambiguous"] += sum(row.ambiguous for row in result)
    busy["hits.rows"] += ns


def _samples(counts, busy, args, result, ns):
    counts["ergodic.samples"] += len(result)
    counts["ergodic.direct"] += sum(s.method == "direct" for s in result)
    busy["ergodic.samples"] += ns


def _out_bytes(counts, busy, args, result, ns):
    counts["cli.out_bytes"] += len(result.encode())


HOOKS = {
    "primes.sieve_range": _sieve,
    "arcs.normalize_union": _normalize,
    "sequences.greedy_sequence": _greedy,
    "sequences.block_construction": _greedy,
    "sequences.save_sequence": _io,
    "sequences.load_sequence": _io,
    "sievelab.level_sets": _levels,
    "sievelab.omega_expectation_mc": _mc,
    "hits.hit_rows": _rows,
    "hits.fractional_rows": _rows,
    "ergodic.convergence_series": _samples,
    **{f"cli.cmd_{name}": _out_bytes for name in
       ("primes", "seq_build", "coverage", "sievelab", "hits", "fracparts", "ergodic")},
}


# Counts of work done inside a span: (counter, metric, factor) adds factor
# times the counter's growth during the span to the metric. A sweep
# processes two endpoints per segment that Arc.segments returns.
INNER = {
    "sievelab.level_sets": ("arcs.segments_out", "sievelab.levels_endpoints", 2),
    "sievelab.omega_expectation_exact": ("arcs.segments_out", "sievelab.exact_endpoints", 2),
    "sievelab.pair_expectation": ("arcs.intersect_measure_calls", "sievelab.pair_placements", 1),
}


def public_functions():
    """(qualified name, function) for each public function a layer defines."""
    for layer in LAYERS:
        module = importlib.import_module(f"primecover.{layer}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                yield f"{layer}.{name}", obj


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # kept for the whole run
        self.counts: Counter = Counter()
        self.busy: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []
        self._wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in public_functions()}
        from primecover.arcs import Arc

        self._segments = original = Arc.segments
        counts = self.counts

        def segments(arc):  # a method, not a module function: counted by its result
            result = original(arc)
            counts["arcs.segments_out"] += len(result)
            return result

        self._counted_segments = segments

    def _wrap(self, name, fn):
        if name in COUNTER_ONLY:
            counts, key = self.counts, f"{name}_calls"

            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook, inner, counts = HOOKS.get(name), INNER.get(name), self.counts
        signature = inspect.signature(fn)

        def spanned(*args, **kwargs):
            wrap_start = clock()
            if name == "arcs.normalize_union":  # count its input without consuming it
                args = (list(args[0]),) + args[1:]
            record = [name, wrap_start, 0, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            before = counts[inner[0]] if inner else 0
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = record[4] = clock()
                stack.pop()
            if inner is not None:
                source, metric, factor = inner
                counts[metric] += factor * (counts[source] - before)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(counts, self.busy, bound.arguments, result, record[3] - record[2])
            if inner is not None or hook is not None:
                record[4] = clock()
            return result

        return spanned

    def install(self) -> None:
        import primecover

        namespaces = [vars(primecover)] + [
            vars(importlib.import_module(f"primecover.{layer}")) for layer in LAYERS
        ]
        namespaces += [
            value
            for ns in list(namespaces)
            for key, value in ns.items()
            if isinstance(value, dict) and not key.startswith("__")
        ]
        for ns in namespaces:
            for key, value in list(ns.items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    ns[key] = entry[1]
                    self._patches.append((ns, key, value))
        from primecover.arcs import Arc

        Arc.segments = self._counted_segments

    def uninstall(self) -> None:
        from primecover.arcs import Arc

        Arc.segments = self._segments
        for ns, key, original in reversed(self._patches):
            ns[key] = original
        self._patches.clear()


def layer_times(spans, lo: int, hi: int) -> Counter:
    """Self ns per layer over spans[lo:hi].

    Children always follow their parent, so spans of one pass form a
    contiguous slice and their parents lie in the same slice.
    """
    covered = Counter()
    for _, wrap_start, _, _, wrap_end, parent in spans[lo:hi]:
        covered[parent] += wrap_end - wrap_start
    per_layer: Counter = Counter()
    for i in range(lo, hi):
        name, _, start, end, _, _ = spans[i]
        per_layer[name.split(".")[0]] += end - start - covered[i]
    return per_layer


def _rate(count: int, ns: int) -> float:
    return count / (ns / 1e9) if ns else 0.0


def layer_metrics(tracer: Tracer, traced: list[dict], untraced_walls: list[int]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes, and each layer's self seconds per pass.

    Each traced pass is {"wall_ns", "gross_ns", "wall_ref", "spans": (lo, hi),
    "counts", "busy"}; untraced_walls are the untraced passes' wall_ref.
    Spans also contain the speed samples taken while they ran (gross_ns
    minus wall_ns); those fall uniformly in time, so shares are taken of
    gross_ns, and self and busy seconds are scaled by wall_ns / gross_ns.
    Counts come from the first traced pass (every traced pass must repeat
    them exactly); shares, rates and io time pool all traced passes.
    """
    self_ns: Counter = Counter()
    for p in traced:
        self_ns.update(layer_times(tracer.spans, *p["spans"]))
    gross_ns = sum(p["gross_ns"] for p in traced)
    net = sum(p["wall_ns"] for p in traced) / gross_ns
    counts = traced[0]["counts"]
    busy: Counter = Counter()
    pooled: Counter = Counter()
    for p in traced:
        busy.update({key: ns * net for key, ns in p["busy"].items()})
        pooled.update(p["counts"])
    metrics = {f"{layer}.self_share": self_ns[layer] / gross_ns for layer in LAYERS}
    metrics.update({
        "primes.calls": counts["primes.calls"],
        "primes.numbers_sieved": counts["primes.numbers_sieved"],
        "arcs.normalize_calls": counts["arcs.normalize_calls"],
        "arcs.segments_in": counts["arcs.segments_in"],
        "arcs.arc_of_calls": counts["arcs.arc_of_calls"],
        "sequences.greedy_primes_per_s": _rate(pooled["sequences.greedy_primes"], busy["sequences.greedy"]),
        "sequences.io_s": busy["sequences.io"] / len(traced) / 1e9,
        "sequences.io_entries": counts["sequences.io_entries"],
        "sievelab.levels_endpoints": counts["sievelab.levels_endpoints"],
        "sievelab.max_den_bits": counts["sievelab.max_den_bits"],
        "sievelab.mc_trials_per_s": _rate(pooled["sievelab.mc_trials"], busy["sievelab.mc"]),
        "sievelab.exact_endpoints": counts["sievelab.exact_endpoints"],
        "sievelab.pair_placements": counts["sievelab.pair_placements"],
        "hits.rows_per_s": _rate(pooled["hits.rows"], busy["hits.rows"]),
        "hits.ambiguous": counts["hits.ambiguous"],
        "ergodic.samples_per_s": _rate(pooled["ergodic.samples"], busy["ergodic.samples"]),
        "ergodic.direct_ratio": counts["ergodic.direct"] / counts["ergodic.samples"] if counts["ergodic.samples"] else 0.0,
        "cli.out_bytes": counts["cli.out_bytes"],
        "trace.overhead_ratio": median(p["wall_ref"] for p in traced) / median(untraced_walls) - 1,
    })
    return metrics, {layer: self_ns[layer] * net / len(traced) / 1e9 for layer in LAYERS}
