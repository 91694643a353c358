"""Tests of the benchmark itself: inputs, verifiers, sampling and span arithmetic.

    python3 -m pytest benchmarks
"""

import dataclasses
import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
import sampling  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CTX = workloads.Context(ROOT)


def test_benchmark_json_names_what_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == spans.PER_LAYER
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"]) <= 0.25
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


def build(workload, seed):
    return workloads.build(workload, CTX, random.Random(seed))


def signature(ops):
    return [(op.kind, op.inputs) for op in ops]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert signature(build(workload, 7)) == signature(build(workload, 7))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_other_seed_other_inputs_same_shares(workload):
    a, b = build(workload, 7), build(workload, 8)
    assert signature(a) != signature(b)
    assert Counter(op.kind for op in a) == Counter(op.kind for op in b)
    assert sum(op.terms for op in a) == sum(op.terms for op in b)


def test_session_invalid_share_is_about_five_percent():
    ops = build("session", 1)
    share = sum(op.kind == "invalid" for op in ops) / len(ops)
    assert 0.04 <= share <= 0.06


def _corrupt_digit(text):
    """Change the last digit in text, or return None when it has none."""
    match = None
    for match in re.finditer(r"\d", text):
        pass
    if match is None:
        return None
    i = match.start()
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def _corruptions(result):
    """Wrong outputs derived from a correct one."""
    if isinstance(result, tuple) and len(result) == 3 and isinstance(result[1], str):
        code, out, err = result
        wrong = [(code + 1, out, err), (code, out + "x", err)]
        if _corrupt_digit(out) is not None:
            wrong.append((code, _corrupt_digit(out), err))
        return wrong
    if isinstance(result, tuple) and len(result) == 2:  # (root, rem), (tokens, n) or (ledger, c)
        first, second = result
        wrong = [(first, second + 1)]
        if isinstance(first, int):
            wrong.append((first + 1, second))
        elif isinstance(first, list):
            wrong.append((first[1:], second))
        else:
            row = dataclasses.replace(first.rows[5], x=first.rows[5].x + first.rows[5].x)
            rows = first.rows[:5] + (row,) + first.rows[6:]
            wrong.append((dataclasses.replace(first, rows=rows), second))
        return wrong
    if isinstance(result, int):
        return [result + 1]
    if isinstance(result, list):
        bad = dataclasses.replace(result[1500], circumference=result[1500].circumference + 1)
        return [result[:1500] + [bad] + result[1501:], result[:-1]]
    fields = {f.name for f in dataclasses.fields(result)}
    if "circumference" in fields:
        return [dataclasses.replace(result, circumference=result.circumference + 1)]
    if "fixed_value" in fields:
        return [dataclasses.replace(result, fixed_value=result.fixed_value + 1),
                dataclasses.replace(result, onset=result.onset + 1)]
    if "mantissa" in fields:
        return [dataclasses.replace(result, mantissa=result.mantissa + 1)]
    return [dataclasses.replace(result, root=result.root + 1),
            dataclasses.replace(result, remainder=result.remainder + 1)]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_verifier_accepts_the_library_and_rejects_corruption(workload):
    seen = set()
    for op in build(workload, 3):
        result = op.call()
        op.check(result)  # the library at this commit is correct on every input
        if op.kind in seen:
            continue
        seen.add(op.kind)
        for wrong in _corruptions(result):
            with pytest.raises(Exception):
                op.check(wrong)


def test_probes_hit_the_digit_limit():
    for op in workloads.probe_ops(random.Random(1)):
        with pytest.raises(ValueError) as info:
            op.call()
        assert workloads.is_digit_limit_error(info.value)


def test_ndigits_past_the_str_limit():
    cases = [(0, 1), (1, 1), (9, 1), (10, 2), (99, 2), (100, 3), (10**4299, 4300),
             (10**4300 - 1, 4300), (10**6000, 6001)]
    for n, digits in cases:
        assert workloads.ndigits(n) == digits


def test_reference_matches_pinned_figures():
    assert ref.int_circumference("f3", ref.D12, 7663, "floor") == ref.F3_FIXED["floor"][0]
    assert ref.onset("f3", ref.D12, "nearest") == ref.F3_FIXED["nearest"][1]
    assert ref.matching_places(2827433388233, ref.D12) == 10
    assert ref.matching_places(314159265358979324, ref.D17) == 17
    assert ref.true_circumference(ref.D12, "nearest") == ref.FINAL_NEAREST_D12
    assert ref.varman_ledger("floor")[3] == ref.VARMAN_C["floor"]
    for n in range(35, 66):
        assert ref.int_circumference("f2", ref.D12, n, "floor") == CTX.scans["table3"]["floor"][n]
        assert ref.int_circumference("f2", ref.D12, n, "nearest") == CTX.scans["table3"]["nearest"][n]


# ---------------------------------------------------------------------------
# span arithmetic


def _span(name, start, end, parent, leaf_ns=0):
    return [name, start, end, parent, 0, leaf_ns, None]


def test_self_time_on_a_synthetic_tree():
    # root 0..100 with children a 10..40 (child c 15..25, 3 ns of leaf calls)
    # and b 50..90 (2 ns of leaf calls); root itself charged 1 ns of leaf calls.
    tree = [
        _span("root", 0, 100, -1, leaf_ns=1),
        _span("a", 10, 40, 0),
        _span("c", 15, 25, 1, leaf_ns=3),
        _span("b", 50, 90, 0, leaf_ns=2),
    ]
    assert spans.self_times(tree) == [100 - 30 - 40 - 1, 30 - 10, 10 - 3, 40 - 2]
    assert sum(spans.self_times(tree)) + 1 + 3 + 2 == 100


def test_install_restores_every_name():
    import paridhi
    from paridhi.exact_arith import ScaledValue

    modules = [m for name, m in sys.modules.items() if name.startswith("paridhi")]
    before = [dict(vars(m)) for m in modules]
    add = ScaledValue.__dict__["__add__"]
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    assert paridhi.madhava_formulas.scan_range is paridhi.cli.scan_range
    assert paridhi.cli.scan_range is not before[modules.index(paridhi.cli)]["scan_range"]
    assert ScaledValue.__dict__["__add__"] is not add
    paridhi.cli.execute(["onset", "--formula", "f3", "--policy", "floor", "--diameter", "900000000000"])
    restore()
    assert [dict(vars(m)) for m in modules] == before
    assert ScaledValue.__dict__["__add__"] is add
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["cli.execute", "cli.build_parser", "madhava_formulas.vanish_onset"]
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 0]


def test_traced_counts_repeat_for_any_seed():
    counts = []
    for seed in (1, 2):
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            for op in build("digits", seed):
                op.call()
        finally:
            restore()
        metrics = spans.layer_metrics(tracer.spans, tracer.counts, tracer.leaf_ns)
        counts.append({name: metrics[name] for name, unit, _ in spans.PER_LAYER if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["numerals.parse_syllable.calls"] == 20 * workloads.ROUND_TRIPS


# ---------------------------------------------------------------------------
# sampling


def test_latency_buffer_keeps_memory_fixed_and_samples_spread():
    buf = sampling.LatencyBuffer(capacity=8)
    for i in range(100):
        buf.add(i % 3, float(i), 1.0)
    assert buf.size <= 8 and buf.seen == 100
    kept = list(buf.values[: buf.size])
    assert kept == sorted(kept) and kept[0] == 0.0 and kept[-1] >= 64.0


def test_weighted_percentile():
    pairs = [(1.0, 1.0), (2.0, 1.0), (3.0, 2.0)]
    assert sampling.weighted_percentile(pairs, 25)[0] == 1.0
    assert sampling.weighted_percentile(pairs, 50)[0] == 2.0
    assert sampling.weighted_percentile(pairs, 75) == (3.0, 0)
    assert sampling.percentile([1, 2, 3, 4], 50) == (2, 2)


def test_every_operation_and_setup_have_a_kernel():
    kernels = {w: {op.kind: op.kernel for op in build(w, 7)} for w in run.WORKLOADS}
    used = {k for by_kind in kernels.values() for k in by_kind.values()} | {sampling.SETUP_KERNEL}
    assert used <= set(sampling.KERNELS)
    assert {kind for kind, k in kernels["series"].items() if k == "arithmetic"} == {
        "circumference.10000.rational", "fixed_point.rational"}
    for kernel, ref_s in sampling.KERNELS.values():
        assert 0 < sampling.time_calibration(kernel) and 0 < ref_s < 0.01
