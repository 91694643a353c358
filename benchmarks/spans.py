"""Tracing from outside the library: spans, counters and per-layer metrics.

The traced run wraps the public entry points of each ``src/paridhi``
module.  A wrapper replaces the function in its defining module and under
every name another paridhi module imported it as, so calls between layers
are seen as well as calls from the benchmark.  Entry points record a span
(name, start, end, parent, op id); the hot leaf operations of
``exact_arith`` and ``numerals`` only add to a counter and charge their time
to the innermost open span, so that a span's self time (its duration minus
its child spans and the leaf time charged to it) is exact without one span
per arithmetic operation.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

from paridhi import aryabhata_sqrt, cli, madhava_formulas, numerals, reference_pi, series_engine
from paridhi.exact_arith import RoundingUndecidableError, ScaledValue
from paridhi.madhava_formulas import WindowedScan
from paridhi.series_engine import ExactFinal, RationalBackend

from workloads import ndigits

# Fields of one span record, in order.  ``detail`` holds the bound
# arguments and result for spans whose metrics need them, else None.
NAME, START, END, PARENT, OP, LEAF_NS, DETAIL = range(7)
FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "leaf_ns")

SPAN_ENTRY_POINTS = {
    cli: ("execute", "build_parser"),
    madhava_formulas: ("circumference", "scan_range", "fixed_point", "vanish_onset"),
    series_engine: ("build_ledger", "varman_circumference"),
    aryabhata_sqrt: ("isqrt", "isqrt_nearest", "isqrt_traced", "sqrt_scaled"),
    numerals: ("encode_katapayadi", "decode_katapayadi", "decode_bhutasamkhya"),
    reference_pi: ("true_circumference", "matching_decimal_places"),
}
# Spans whose arguments and result the per-layer metrics read.
DETAILED = {"cli.execute", "madhava_formulas.circumference", "madhava_formulas.scan_range",
            "madhava_formulas.fixed_point", "series_engine.build_ledger", "aryabhata_sqrt.isqrt",
            "aryabhata_sqrt.isqrt_traced"}
SCALED_OPS = ("__add__", "__sub__", "div_int", "from_ratio")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.leaf_ns: dict[str, int] = defaultdict(int)
        self.op = 0

    def next_op(self, _op, _elapsed_ns) -> None:
        self.op += 1

    def span(self, name: str, fn):
        signature = inspect.signature(fn) if name in DETAILED else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.op, 0, None]
            stack.append(len(spans))
            spans.append(record)
            result = None
            record[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                record[END] = perf_counter_ns()
                stack.pop()
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    record[DETAIL] = (bound.arguments, result)

        return wrapper

    def leaf(self, name: str, fn, raises: type[BaseException] | None = None):
        spans, stack, counts, leaf_ns = self.spans, self.stack, self.counts, self.leaf_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if raises is not None and isinstance(exc, raises):
                    counts[name + ".raised"] += 1
                raise
            finally:
                elapsed = perf_counter_ns() - start
                counts[name] += 1
                leaf_ns[name] += elapsed
                if stack:
                    spans[stack[-1]][LEAF_NS] += elapsed

        return wrapper


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[1]


def install(tracer: Tracer):
    """Wrap the entry points; returns a function that restores the originals."""
    paridhi_modules = [m for name, m in sys.modules.items()
                       if m is not None and (name == "paridhi" or name.startswith("paridhi."))]
    undo: list[tuple[object, str, object]] = []

    def replace_everywhere(original, wrapped) -> None:
        for module in paridhi_modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapped)

    for module, names in SPAN_ENTRY_POINTS.items():
        for name in names:
            original = getattr(module, name)
            replace_everywhere(original, tracer.span(f"{_layer(module)}.{name}", original))
    original = numerals.parse_syllable
    replace_everywhere(original, tracer.leaf("numerals.parse_syllable", original))

    for name in SCALED_OPS + ("round_checked",):
        raw = ScaledValue.__dict__[name]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        counter = "exact_arith.round_checked" if name == "round_checked" else "exact_arith.scaled_ops"
        wrapped = tracer.leaf(counter, fn, RoundingUndecidableError)
        undo.append((ScaledValue, name, raw))
        setattr(ScaledValue, name, classmethod(wrapped) if is_classmethod else wrapped)

    def restore() -> None:
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)

    return restore


# ---------------------------------------------------------------------------
# metrics from spans


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus its direct child spans and charged leaf time."""
    own = [s[END] - s[START] - s[LEAF_NS] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _policy_key(policy) -> str:
    if isinstance(policy, ExactFinal):
        return "rational" if isinstance(policy.backend, RationalBackend) else "scaled"
    return str(policy)  # "floor" or "nearest"


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def _is_outermost(spans, s, layer: str) -> bool:
    return s[PARENT] < 0 or not spans[s[PARENT]][NAME].startswith(layer)


def _madhava_terms(name: str, args: dict, result) -> int:
    if result is None:  # the call raised
        return 0
    if name.endswith("circumference"):
        return args["n"]
    if name.endswith("scan_range"):
        return args["n_to"]
    return result.max_terms_examined


PER_LAYER = [  # (name, unit, better)
    ("cli.commands", "count", "higher"),
    ("cli.errors", "count", "lower"),
    ("cli.build_parser_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    *[(f"madhava_formulas.terms.{p}", "count", "lower") for p in ("floor", "nearest", "scaled", "rational")],
    *[(f"madhava_formulas.ns_per_term.{p}", "ns", "lower") for p in ("floor", "nearest", "scaled", "rational")],
    ("madhava_formulas.self_s", "s", "lower"),
    ("madhava_formulas.fixed_point.examined_over_onset", "ratio", "lower"),
    ("exact_arith.scaled_ops", "count", "lower"),
    ("exact_arith.scaled_op_ns", "ns", "lower"),
    ("exact_arith.round_checked.calls", "count", "lower"),
    ("exact_arith.round_checked.us_per_call", "us", "lower"),
    ("exact_arith.undecidable", "count", "lower"),
    ("series_engine.rows", "count", "higher"),
    *[(f"series_engine.ns_per_row.{b}", "ns", "lower") for b in ("int", "scaled", "rational")],
    ("series_engine.self_ms", "ms", "lower"),
    ("aryabhata_sqrt.calls", "count", "higher"),
    ("aryabhata_sqrt.digit_pairs", "count", "higher"),
    ("aryabhata_sqrt.ns_per_pair", "ns", "lower"),
    ("aryabhata_sqrt.traced_us_per_call", "us", "lower"),
    ("aryabhata_sqrt.vs_math_isqrt", "ratio", "lower"),
    ("numerals.parse_syllable.calls", "count", "lower"),
    ("numerals.encode.us_per_call", "us", "lower"),
    ("numerals.decode_katapayadi.us_per_call", "us", "lower"),
    ("numerals.decode_bhutasamkhya.us_per_call", "us", "lower"),
    ("reference_pi.calls", "count", "higher"),
    ("reference_pi.us_per_call", "us", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def layer_metrics(spans: list[list], counts: dict[str, int], leaf_ns: dict[str, int],
                  passes: int = 1) -> dict[str, float]:
    """Per-layer metrics of the given spans and leaf counters.

    Counts and self-time totals are per pass; the other times are means.
    """
    own = self_times(spans)
    m: dict[str, float] = defaultdict(float)
    dur: dict[str, list[int]] = defaultdict(list)
    self_ns: dict[str, int] = defaultdict(int)
    term_ns: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    row_ns: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    pair_ns = [0, 0]
    cli_self: list[int] = []
    examined = onsets = 0
    for i, s in enumerate(spans):
        name, detail, d = s[NAME], s[DETAIL], s[END] - s[START]
        layer = name.split(".")[0]
        dur[name].append(d)
        self_ns[layer] += own[i]
        if layer != "cli" and _is_outermost(spans, s, layer):
            dur[layer].append(d)
        if name == "cli.execute":
            cli_self.append(own[i])
            m["cli.errors"] += detail[1] is None or detail[1][0] != 0
        elif layer == "madhava_formulas" and detail and _is_outermost(spans, s, layer):
            args, result = detail
            acc = term_ns[_policy_key(args["policy"])]
            acc[0] += d
            acc[1] += _madhava_terms(name, args, result)
            if name.endswith("fixed_point") and result is not None and isinstance(result.method, WindowedScan):
                examined += result.max_terms_examined
                onsets += result.onset
        elif name == "series_engine.build_ledger" and detail[1] is not None:
            policy = detail[0]["policy"]
            acc = row_ns[_policy_key(policy) if isinstance(policy, ExactFinal) else "int"]
            acc[0] += d
            acc[1] += len(detail[1].rows)
        elif name in ("aryabhata_sqrt.isqrt", "aryabhata_sqrt.isqrt_traced"):
            pairs = (ndigits(detail[0]["n"]) + 1) // 2
            m["aryabhata_sqrt.digit_pairs"] += pairs
            if name == "aryabhata_sqrt.isqrt":
                pair_ns[0] += d
                pair_ns[1] += pairs
    mean = lambda name: _mean(sum(dur[name]), len(dur[name]))  # noqa: E731
    leaf_mean = lambda name: _mean(leaf_ns.get(name, 0), counts.get(name, 0))  # noqa: E731
    m.update({
        "cli.commands": len(cli_self),
        "cli.build_parser_ms": mean("cli.build_parser") / 1e6,
        "cli.self_ms": _mean(sum(cli_self), len(cli_self)) / 1e6,
        "madhava_formulas.self_s": self_ns["madhava_formulas"] / 1e9,
        "madhava_formulas.fixed_point.examined_over_onset": examined / onsets if onsets else 0.0,
        "exact_arith.scaled_ops": counts.get("exact_arith.scaled_ops", 0),
        "exact_arith.scaled_op_ns": leaf_mean("exact_arith.scaled_ops"),
        "exact_arith.round_checked.calls": counts.get("exact_arith.round_checked", 0),
        "exact_arith.round_checked.us_per_call": leaf_mean("exact_arith.round_checked") / 1e3,
        "exact_arith.undecidable": counts.get("exact_arith.round_checked.raised", 0),
        "series_engine.rows": sum(rows for _, rows in row_ns.values()),
        "series_engine.self_ms": self_ns["series_engine"] / 1e6,
        "aryabhata_sqrt.calls": len(dur["aryabhata_sqrt"]),
        "aryabhata_sqrt.ns_per_pair": _mean(*pair_ns),
        "aryabhata_sqrt.traced_us_per_call": mean("aryabhata_sqrt.isqrt_traced") / 1e3,
        "numerals.parse_syllable.calls": counts.get("numerals.parse_syllable", 0),
        "numerals.encode.us_per_call": mean("numerals.encode_katapayadi") / 1e3,
        "numerals.decode_katapayadi.us_per_call": mean("numerals.decode_katapayadi") / 1e3,
        "numerals.decode_bhutasamkhya.us_per_call": mean("numerals.decode_bhutasamkhya") / 1e3,
        "reference_pi.calls": len(dur["reference_pi"]),
        "reference_pi.us_per_call": mean("reference_pi") / 1e3,
    })
    for p in ("floor", "nearest", "scaled", "rational"):
        m[f"madhava_formulas.terms.{p}"] = term_ns[p][1]
        m[f"madhava_formulas.ns_per_term.{p}"] = _mean(*term_ns[p])
    for b in ("int", "scaled", "rational"):
        m[f"series_engine.ns_per_row.{b}"] = _mean(*row_ns[b])
    totals = [name for name, unit, _ in PER_LAYER if unit == "count"]
    totals += ["madhava_formulas.self_s", "series_engine.self_ms"]
    for name in totals:
        m[name] /= passes
    return m


def isqrt_radicands(spans: list[list]) -> list[int]:
    """Inputs of the isqrt calls that returned (invalid commands pass -4)."""
    return [s[DETAIL][0]["n"] for s in spans
            if s[NAME] == "aryabhata_sqrt.isqrt" and s[DETAIL][1] is not None]


def vs_math_isqrt(radicands: list[int], isqrt) -> float:
    """Busy time of the digit-pair isqrt over math.isqrt on the same inputs,
    each timed as one loop over all radicands, best of three."""
    if not radicands:
        return 0.0

    def loop(fn) -> int:
        start = perf_counter_ns()
        for n in radicands:
            fn(n)
        return perf_counter_ns() - start

    return min(loop(isqrt) for _ in range(3)) / min(loop(math.isqrt) for _ in range(3))


def overhead_pct(untraced_ns: list[int], traced_ns: list[int]) -> float:
    return 100 * statistics.median(t / u - 1 for u, t in zip(untraced_ns, traced_ns))
