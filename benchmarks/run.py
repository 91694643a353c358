"""paridhi benchmark: one workload per process, closed loop, one client.

    python3 benchmarks/run.py --workload session --seed 1 --seconds 30 --trace 0

Run from the repository root or anywhere else: the package is imported from
``src/`` beside this directory, never from an installed copy.  The last line
on stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``).  A run record, and with ``--trace 1`` the spans, are
written under ``benchmarks/out/``.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable

import sampling

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("session", "series", "digits")
END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("terms_per_s", "1/s"), ("peak_rss_mb", "MB")]
# Tail percentile per workload: the highest with at least ten samples
# beyond it in 30 s runs on a 2-core host (see README.md).
TAIL_PERCENTILE = {"session": 99.7, "series": 85.0, "digits": 99.99}
SETUP_REPS = 11
TRACE_DECKS = {"session": 1, "series": 1, "digits": 4}  # workload passes per trace pass
TRACE_MAX_SPANS = 100_000  # no further traced pass once this many spans are held

# The workload's first call: it loads the lexicon and, for session, builds
# the first parser.  Setup runs it in fresh interpreters; the measured
# process runs it once, untimed, before the loop.
FIRST_CALL = {
    "session": "from paridhi import cli\n"
               "cli.execute(['decode', '--system', 'bhutasamkhya', 'vibudha', 'netra'])\n",
    "series": "from paridhi import madhava_formulas as m, series_engine as s\n"
              "m.circumference(m.F2(m.CorrectionId.C3), 900000000000, 1, s.FLOOR_EACH_OP)\n",
    "digits": "from paridhi import aryabhata_sqrt, numerals\n"
              "numerals.decode_bhutasamkhya(['vibudha', 'netra'])\n"
              "aryabhata_sqrt.isqrt(2)\n",
}
SETUP_PRELUDE = "import sys\nsys.path.insert(0, sys.argv[1])\nimport paridhi\n"


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, op, result, error: BaseException | None) -> None:
        """Count one operation; an exception or a failed check is a failure."""
        self.attempted += 1
        if error is None:
            try:
                op.check(result)
                return
            except Exception as exc:  # a wrong output, or a check that crashed on it
                error = exc
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op.kind}: {type(error).__name__}: {error}"[:300])


def run_pass(ops, tally: Tally, deadline: float | None = None,
             on_time: Callable[[object, int], None] | None = None) -> tuple[int, bool]:
    """Run ops in order, checking each output after its timed call.

    Returns the busy nanoseconds and whether the pass completed before
    the deadline.
    """
    busy = 0
    for i, op in enumerate(ops):
        error = result = None
        start = perf_counter_ns()
        try:
            result = op.call()
        except Exception as exc:
            error = exc
        elapsed = perf_counter_ns() - start
        busy += elapsed
        if on_time is not None:
            on_time(op, elapsed)
        tally.record(op, result, error)
        if deadline is not None and perf_counter() >= deadline and i + 1 < len(ops):
            return busy, False
    return busy, True


def measure_setup(workload: str) -> tuple[float, dict]:
    code = SETUP_PRELUDE + FIRST_CALL[workload]

    def spawn() -> None:
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup interpreter failed: {proc.stderr.decode()[-500:]}")

    median, raw, corrected = sampling.corrected_setup(spawn, SETUP_REPS)
    return median, {"setup_raw_s": raw, "setup_corrected_s": corrected}


def run_untraced(workload: str, ops, rng: random.Random, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Closed loop over shuffled passes until the deadline.

    Throughput is the pass's operations (or terms) over its estimated
    duration: the sum over its operations of their kind's median corrected
    latency.  Medians per kind shrug off the speed swings of a shared host
    that a plain sum of busy time keeps.
    """
    kinds = sorted({op.kind for op in ops})
    index = {kind: i for i, kind in enumerate(kinds)}
    kernel_of = {op.kind: op.kernel for op in ops}
    sampler = sampling.Sampler([kernel_of[kind] for kind in kinds])
    deadline = perf_counter() + seconds
    passes = 0
    while perf_counter() < deadline:
        rng.shuffle(ops)
        passes += run_pass(ops, tally, deadline, lambda op, ns: sampler.add(index[op.kind], ns))[1]
    sampler.flush()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before summarising
    groups = {kinds[k]: values for k, values in enumerate(sampler.corrected(len(kinds))) if values}
    per_pass = {kind: sum(op.kind == kind for op in ops) for kind in groups}
    median = {kind: statistics.median(v) for kind, v in groups.items()}
    sampled = [op for op in ops if op.kind in median]
    pass_s = sum(median[op.kind] for op in sampled)
    # Latency percentiles at the pass's mix of kinds, also when the run
    # stopped partway through a pass.
    weighted = [(v, per_pass[kind] / len(vs)) for kind, vs in groups.items() for v in vs]
    p50 = sampling.weighted_percentile(weighted, 50)[0]
    tail, beyond = sampling.weighted_percentile(weighted, TAIL_PERCENTILE[workload])
    metrics = {
        "ops_per_s": len(sampled) / pass_s,
        "op_p50_ms": p50 * 1e3,
        "op_tail_ms": tail * 1e3,
        "terms_per_s": sum(op.terms for op in sampled) / pass_s,
        "peak_rss_mb": peak_rss_mb,
    }
    buffer = sampler.buffer
    raw = sorted(buffer.values[: buffer.size])
    info = {
        "calibrations": {name: len(c) for name, c in sampler.calibrations.items()},
        "calibration_median_s": {name: statistics.median(c) for name, c in sampler.calibrations.items()},
        "kernel_by_kind": kernel_of,
        "latency_samples": buffer.size, "operations_timed": buffer.seen,
        "complete_passes": passes, "tail_percentile": TAIL_PERCENTILE[workload],
        "tail_samples_beyond": beyond,
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_tail_ms": sampling.percentile(raw, TAIL_PERCENTILE[workload])[0] * 1e3,
        "busy_share_by_kind": {kind: median[kind] * per_pass[kind] / pass_s
                               for kind in sorted(median)},
    }
    return metrics, info


def run_traced(workload: str, ops, rng: random.Random, seconds: float, tally: Tally) -> tuple[dict, dict, list]:
    import spans as sp
    from paridhi import aryabhata_sqrt

    tracer = sp.Tracer()
    untraced, traced = [], []
    first = None
    deadline = perf_counter() + seconds
    while not traced or (perf_counter() < deadline and len(tracer.spans) < TRACE_MAX_SPANS):
        rng.shuffle(ops)
        deck = ops * TRACE_DECKS[workload]
        untraced.append(run_pass(deck, tally)[0])
        restore = sp.install(tracer)
        try:
            traced.append(run_pass(deck, tally, on_time=tracer.next_op)[0])
        finally:
            restore()
        if first is None:  # counts come from one pass: they depend only on the inputs
            first = sp.layer_metrics(tracer.spans, dict(tracer.counts), dict(tracer.leaf_ns))
            radicands = sp.isqrt_radicands(tracer.spans)
    every = sp.layer_metrics(tracer.spans, tracer.counts, tracer.leaf_ns, len(traced))
    every["aryabhata_sqrt.vs_math_isqrt"] = sp.vs_math_isqrt(radicands, aryabhata_sqrt.isqrt)
    every["trace.overhead_pct"] = sp.overhead_pct(untraced, traced)
    metrics = {name: {"value": float((first if unit == "count" else every)[name]), "unit": unit}
               for name, unit, _ in sp.PER_LAYER}
    info = {"trace_pairs": len(traced), "spans": len(tracer.spans),
            "untraced_pass_ns": untraced, "traced_pass_ns": traced}
    return metrics, info, [s[: len(sp.FIELDS)] for s in tracer.spans]


def run_probes(rng: random.Random) -> dict:
    """Inputs above the 4300-digit int<->str limit, run once, untimed."""
    from workloads import Mismatch, is_digit_limit_error, probe_ops

    outcome = {"attempted": 0, "known_defect": 0, "passed": 0, "failed": 0, "details": []}
    for op in probe_ops(rng):
        outcome["attempted"] += 1
        try:
            op.check(op.call())
            outcome["passed"] += 1
            status = "passed"
        except Mismatch as exc:
            outcome["failed"] += 1
            status = f"wrong output: {exc}"[:200]
        except Exception as exc:
            key = "known_defect" if is_digit_limit_error(exc) else "failed"
            outcome[key] += 1
            status = f"{key}: {type(exc).__name__}"
        outcome["details"].append(f"{op.kind}: {status}")
    return outcome


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "paridhi" / "__init__.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"error: no paridhi sources at {SRC} or golden tables beside them", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import paridhi
    if Path(paridhi.__file__).resolve().parent != (SRC / "paridhi").resolve():
        print(f"error: imported paridhi from {paridhi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "loadavg_start": os.getloadavg()}
    rng = random.Random(args.seed)
    ops = workloads.build(args.workload, workloads.Context(ROOT), rng)
    setup = None if args.trace else measure_setup(args.workload)
    exec(FIRST_CALL[args.workload], {})

    tally = Tally()
    if args.trace:
        metrics, info, span_rows = run_traced(args.workload, ops, rng, args.seconds, tally)
    else:
        e2e, info = run_untraced(args.workload, ops, rng, args.seconds, tally)
        e2e["setup_s"] = setup[0]
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
        info.update(setup[1])
    probes = run_probes(rng) if args.workload == "digits" else None
    if probes:  # a digit-limit ValueError is the known defect; anything else fails
        tally.attempted += probes["attempted"]
        tally.failed += probes["failed"]

    record.update(info)
    record.update({
        "loadavg_end": os.getloadavg(), "attempted": tally.attempted, "failed": tally.failed,
        "fail_ratio": tally.failed / tally.attempted, "failures": tally.failures,
        "probes": probes, "metrics": metrics,
    })
    if probes:
        record["fail_ratio_with_known_defects"] = (
            (tally.failed + probes["known_defect"]) / tally.attempted)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        from spans import FIELDS
        with open(OUT / f"spans-{stem}.json", "w") as fh:
            json.dump({"fields": FIELDS, "spans": span_rows}, fh)

    summary = f"{args.workload}: {tally.attempted} operations, {tally.failed} failed"
    if probes:
        summary += (f"; digit-limit probes: {probes['attempted']} run, "
                    f"{probes['known_defect']} known-defect failures, {probes['failed']} other failures")
    print(summary)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
