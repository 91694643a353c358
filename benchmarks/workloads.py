"""Seeded inputs, operations and output checks for the three workloads.

Every workload is a fixed multiset of operation shapes.  The seed chooses
the order and the free values (integers to encode, radicands of a given
length, output formats), never the amount of work, so the layer counts of
one pass repeat exactly for every seed.

Operations call the library through module attributes (``cli.execute``,
not an imported ``execute``) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from paridhi import aryabhata_sqrt, cli, madhava_formulas, numerals, series_engine
from paridhi.exact_arith import RoundingMode
from paridhi.madhava_formulas import F2, F3, F4, AnalyticVanish, CorrectionId, WindowedScan
from paridhi.series_engine import ExactFinal, RationalBackend, ScaledBackend

import reference as ref

FORMATS = ("table", "csv", "json")


class Mismatch(Exception):
    """An operation returned something other than the expected output."""


@dataclass
class Op:
    kind: str  # size or command class; its share of the multiset is fixed
    call: Callable[[], object]
    check: Callable[[object], None]  # raises Mismatch on a wrong output
    terms: int  # work items: series terms, ledger rows, digit pairs or symbols
    inputs: tuple = ()  # what the seed chose, for tests of determinism
    # Calibration kernel (sampling.KERNELS) whose slowdown on a busy host is
    # like this operation's: big-Fraction sums slow down like big-int
    # arithmetic, everything else like short interpreter-bound work.
    kernel: str = "interpreter"


def expect(actual, wanted, what: str) -> None:
    if actual != wanted:
        raise Mismatch(f"{what}: got {_short(actual)}, want {_short(wanted)}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 160 else text[:157] + "..."


def ndigits(n: int) -> int:
    """Decimal digit count of n >= 0 without str(), so it works past 4300 digits."""
    d = max(1, (n.bit_length() * 1233) >> 12)  # never above the digit count
    while n >= 10**d:
        d += 1
    return d


class Context:
    """Files the workloads read: golden tables and the packaged lexicon."""

    def __init__(self, root: Path):
        self.golden = ref.load_golden(root / "tests" / "golden")
        self.digit_words, self.magnitude_words = ref.load_lexicon_file(
            root / "src" / "paridhi" / "data" / "bhutasamkhya.tsv")
        self.scans = {t: ref.scan_columns(self.golden, t) for t in ref.SCAN_TABLES}
        self.f3 = {row["policy"]: (int(row["fixed_value"]), int(row["onset"]))
                   for row in ref.parse_aligned(self.golden["f3-fixed-points"])}
        for policy, pinned in ref.F3_FIXED.items():
            expect(self.f3[policy], pinned, f"golden F3 fixed point {policy}")


def build(workload: str, ctx: Context, rng: random.Random) -> list[Op]:
    """One pass of the workload: the fixed multiset of operations, shuffled."""
    ops = {"session": session_ops, "series": series_ops, "digits": digit_ops}[workload](ctx, rng)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# session: short CLI commands through cli.execute


def _records(fmt: str, out: str, headers: list[str], records: list[dict]) -> None:
    """Check csv or json output of a list of flat records."""
    if fmt == "json":
        expect(json.loads(out), records, "json records")
    else:
        rows = list(csv.reader(io.StringIO(out)))
        want = [headers] + [[str(r[h]) for h in headers] for r in records]
        expect(rows, want, "csv rows")


def _cli_op(kind: str, argv: list[str], check_out: Callable[[str], None], terms: int = 0) -> Op:
    def check(result) -> None:
        code, out, err = result
        expect((code, err), (0, ""), f"exit status of {' '.join(argv[:3])}")
        check_out(out)

    return Op(kind, lambda: cli.execute(argv), check, terms, tuple(argv))


def _exact_out(wanted: str) -> Callable[[str], None]:
    return lambda out: expect(out, wanted, "stdout")


def _invalid_op(argv: list[str], code: int) -> Op:
    def check(result) -> None:
        got_code, out, err = result
        expect((got_code, out, err.startswith("error:")), (code, "", True),
               f"invalid command {' '.join(argv)}")

    return Op("invalid", lambda: cli.execute(argv), check, 0, tuple(argv))


def _formula_args(formula: str, correction: str) -> list[str]:
    return ["--formula", formula] + (["--correction", correction] if correction else [])


def _table_terms(table: str) -> int:
    if table == "varman-ledger":
        return len(ref.varman_ledger("floor")[0])
    return 3 * ref.SCAN_TABLES[table][3]  # three policies scanned up to n_to


D12 = str(ref.D12)
D17 = str(ref.D17)
INVALID = [
    (["frobnicate"], 2),
    (["sqrt", "1e5"], 2),
    (["varman"], 2),
    (["reproduce", "--table", "table9"], 2),
    (["onset", "--formula", "f2", "--policy", "floor", "--diameter", D12], 2),
    (["circumference", "--formula", "f5", "--diameter", D12, "--terms", "3", "--policy", "floor"], 2),
    (["scan", "--formula", "f4", "--diameter", D12, "--from", "1", "--to", "3", "--policy", "up"], 2),
    (["varman", "--diameter", "0", "--policy", "floor"], 1),
    (["sqrt", "-4"], 1),
    (["encode", "-5"], 1),
    (["decode", "--system", "bhutasamkhya", "asdf"], 1),
    (["decode", "--system", "katapayadi", "xyz"], 1),
    (["scan", "--formula", "f4", "--diameter", D12, "--from", "9", "--to", "3", "--policy", "floor"], 1),
    (["compare", "--circumference", "5", "--diameter", str(10**19)], 1),
]


def session_ops(ctx: Context, rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    fmt = lambda: rng.choice(FORMATS)  # noqa: E731

    for table in ("varman-ledger", "table2", "table3", "table-f4"):
        for _ in range(5):
            ops.append(_cli_op(f"reproduce.{table}", ["reproduce", "--table", table],
                               _exact_out(ctx.golden[table]), _table_terms(table)))

    # Every n of the paper's three windows once, the column rotating with n.
    for table, (formula, corr, lo, hi, _final) in ref.SCAN_TABLES.items():
        columns = ctx.scans[table]
        names = list(columns)
        for i, n in enumerate(range(lo, hi + 1)):
            column = names[i % 3]
            policy = column.replace("_", "-")
            backend = "rational" if (policy.startswith("final") and formula != "f1"
                                     and (i // 3) % 2) else "scaled"
            ops.append(_circumference_op(formula, corr, n, policy, backend, fmt(),
                                         columns[column][n]))

    for table, (formula, corr, lo, hi, final) in ref.SCAN_TABLES.items():
        for _ in range(4):
            ops.append(_scan_all_op(ctx, table, formula, corr, lo, hi, final, fmt()))

    variants = [("floor", "scaled"), ("nearest", "scaled"), ("final-floor", "scaled"),
                ("final-nearest", "scaled"), ("final-floor", "rational"),
                ("final-nearest", "rational")]
    for _ in range(3):
        for policy, backend in variants:
            for ledger in (False, True):
                ops.append(_varman_op(ctx, policy, backend, ledger, fmt()))

    for formula in ("f3", "f4"):
        for policy in ("floor", "nearest"):
            value, onset = (ctx.f3[policy] if formula == "f3" else _f4_fixed(policy))
            for _ in range(3):
                ops.append(_cli_op(f"onset.{formula}.{policy}", ["onset", "--formula", formula, "--policy", policy,
                                             "--diameter", D12], _exact_out(f"{onset}\n")))
                ops.append(_fixed_point_op(formula, policy, value, onset, fmt()))

    for tokens, value, count in ((ref.PHRASE, ref.PHRASE_VALUE, 8),
                                 (ref.WORDS, ref.WORDS_VALUE, 8),
                                 (["nava", "nikharva"], 9 * 10**11, 4)):
        system = "katapayadi" if tokens is ref.PHRASE else "bhutasamkhya"
        for _ in range(count):
            ops.append(_cli_op(f"decode.{system}.{len(tokens)}",
                               ["decode", "--system", system, *tokens],
                               _exact_out(f"{value}\n")))

    for _ in range(20):
        n = rng.randrange(10**19, 10**20)
        ops.append(_cli_op("encode", ["encode", str(n)],
                           _exact_out(" ".join(ref.katapayadi_encoding(n)) + "\n")))

    for i in range(20):
        d = ref.D12 if i % 2 == 0 else ref.D17
        c = ref.true_circumference(d, "nearest") + rng.randint(-40, 40)
        ops.append(_cli_op("compare", ["compare", "--circumference", str(c), "--diameter", str(d)],
                           _exact_out(_compare_text(c, d))))

    for length in range(1, 21):
        n = rng.randrange(10 ** (length - 1), 10**length)
        ops.append(_sqrt_trace_op(n, fmt()))

    ops.extend(_invalid_op(argv, code) for argv, code in INVALID)
    return ops


def _f4_fixed(policy: str) -> tuple[int, int]:
    onset = ref.onset("f4", ref.D12, policy)
    return ref.int_circumference("f4", ref.D12, onset, policy), onset


def _circumference_op(formula, corr, n, policy, backend, fmt, value) -> Op:
    argv = (["circumference"] + _formula_args(formula, corr)
            + ["--diameter", D12, "--terms", str(n), "--policy", policy,
               "--backend", backend, "--format", fmt])
    record = {"formula": formula, "correction": corr, "diameter": ref.D12, "n": n,
              "policy": policy, "circumference": value}

    def check_out(out: str) -> None:
        if fmt == "table":
            expect(out, f"{value}\n", f"circumference {formula} n={n} {policy}")
        else:
            _records(fmt, out, list(record), [record])

    return _cli_op(f"circumference.{formula}.{policy}.{backend}", argv, check_out, n)


def _scan_all_op(ctx, table, formula, corr, lo, hi, final, fmt) -> Op:
    argv = (["scan"] + _formula_args(formula, corr)
            + ["--diameter", D12, "--from", str(lo), "--to", str(hi), "--policy", "all",
               "--final-mode", final, "--format", fmt])
    columns = ctx.scans[table]
    records = [{"n": n, **{name: col[n] for name, col in columns.items()}}
               for n in range(lo, hi + 1)]

    def check_out(out: str) -> None:
        if fmt == "table":  # same renderer as `reproduce`, so byte-equal to golden
            expect(out, ctx.golden[table], f"scan --policy all {table}")
        else:
            _records(fmt, out, list(records[0]), records)

    return _cli_op(f"scan.{table}", argv, check_out, 3 * hi)


def _varman_op(ctx, policy, backend, ledger, fmt) -> Op:
    final = policy.startswith("final")
    terms = 38 if final else None
    rows, odd, even, c = ref.varman_ledger(policy, backend, terms)
    if backend == "scaled":
        expect(c, ref.VARMAN_C[policy], f"reference ledger C {policy}")
    argv = (["varman", "--diameter", D17, "--policy", policy, "--backend", backend,
             "--format", fmt] + (["--terms", "38"] if final else [])
            + (["--ledger"] if ledger else []))
    summary = f"terms = {len(rows)}\nO = {odd}\nE = {even}\nC = {c}\n"
    lines = [f"{k} | {x} | (÷{div}) | {'+' if sign > 0 else '-'} | {t}"
             for k, x, div, sign, t in rows]
    ledger_table = "k | x_k | div | sign | t_k\n" + "\n".join(lines) + "\n"
    if policy == "floor":
        expect(ledger_table, ctx.golden["varman-ledger"], "reference ledger vs golden")
    headers = ["k", "x_k", "divisor", "sign", "t_k"]
    records = [dict(zip(headers, row)) for row in rows]

    def check_out(out: str) -> None:
        if not ledger:
            expect(out, summary, f"varman {policy} {backend}")
        elif fmt == "table":
            expect(out, ledger_table + summary, f"varman --ledger {policy} {backend}")
        else:
            _records(fmt, out, headers, records)

    return _cli_op(f"varman.{policy}.{backend}.{'ledger' if ledger else 'summary'}",
                   argv, check_out, len(rows))


def _fixed_point_op(formula, policy, value, onset, fmt) -> Op:
    argv = ["fixed-point", "--formula", formula, "--policy", policy, "--diameter", D12,
            "--format", fmt]
    record = {"formula": formula, "correction": "", "diameter": ref.D12, "policy": policy,
              "fixed_value": value, "onset": onset, "method": "analytic-vanish",
              "max_terms_examined": onset}

    def check_out(out: str) -> None:
        if fmt == "table":
            expect(out, "".join(f"{k} = {v}\n" for k, v in record.items()),
                   f"fixed-point {formula} {policy}")
        else:
            _records(fmt, out, list(record), [record])

    return _cli_op(f"fixed-point.{formula}.{policy}", argv, check_out, onset)


def _compare_text(c: int, d: int) -> str:
    floor_true = ref.true_circumference(d, "floor")
    nearest_true = ref.true_circumference(d, "nearest")
    return (f"matching_decimal_places = {ref.matching_places(c, d)}\n"
            f"true_floor = {floor_true}\ntrue_nearest = {nearest_true}\n"
            f"error_vs_floor = {c - floor_true:+d}\nerror_vs_nearest = {c - nearest_true:+d}\n")


def _sqrt_trace_op(n: int, fmt: str) -> Op:
    root, rem = ref.isqrt_rem(n)
    headers = ["place", "working", "divisor_or_square", "digit", "subtracted"]
    records = [dict(zip(headers, row)) for row in ref.sqrt_worksheet(n)]

    def check_out(out: str) -> None:
        if fmt == "table":
            lines = out.splitlines()
            expect((lines[0], lines[-2:]), (f"n = {n}", [f"root = {root}", f"remainder = {rem}"]),
                   f"sqrt --trace {n}")
        else:
            _records(fmt, out, headers, records)

    return _cli_op("sqrt", ["sqrt", "--trace", "--format", fmt, str(n)], check_out)


# ---------------------------------------------------------------------------
# series: long exact sums through the library API

NEAREST = RoundingMode.NEAREST_HALF_UP
F2C3 = F2(CorrectionId.C3)


def series_ops(ctx: Context, rng: random.Random) -> list[Op]:
    mf, se = madhava_formulas, series_engine
    scaled = ExactFinal(NEAREST, ScaledBackend(40))
    rational = ExactFinal(NEAREST, RationalBackend())
    ops = []
    for n, label, policy, value in ((10**6, "floor", se.FLOOR_EACH_OP, ref.MILLION_FLOOR),
                                    (10**6, "nearest", se.NEAREST_EACH_OP, ref.MILLION_NEAREST),
                                    (10**5, "scaled", scaled, ref.FINAL_NEAREST_D12),
                                    (10**4, "rational", rational, ref.FINAL_NEAREST_D12)):
        ops.append(Op(f"circumference.{n}.{label}", lambda n=n, p=policy: mf.circumference(F2C3, ref.D12, n, p),
                      lambda r, n=n, v=value: expect(r.circumference, v, f"F2+C3 n={n}"), n,
                      kernel=_series_kernel(label)))

    for key, label, policy in (("floor", "floor", se.FLOOR_EACH_OP),
                               ("nearest", "nearest", se.NEAREST_EACH_OP),
                               ("final-nearest", "scaled", scaled),
                               ("final-nearest", "rational", rational)):
        value, onset = ctx.f3[key]
        windowed = key.startswith("final")
        examined = onset + 50 if windowed else onset
        method = WindowedScan(50) if windowed else AnalyticVanish()
        ops.append(Op(f"fixed_point.{label}", lambda p=policy: mf.fixed_point(F3(), ref.D12, p),
                      lambda r, w=(value, onset, method, examined): expect(
                          (r.fixed_value, r.onset, r.method, r.max_terms_examined), w,
                          f"F3 fixed point {r.policy}"),
                      examined, kernel=_series_kernel(label)))

    f4_final = ctx.scans["table-f4"]["final_nearest"]

    def check_scan(results) -> None:
        values = [r.circumference for r in results]
        expect([r.n for r in results], list(range(1, 2001)), "F4 scan n values")
        expect({n: values[n - 1] for n in f4_final}, f4_final, "F4 scan vs golden")
        expect(set(values[ref.F4_STABLE_FROM - 1:]), {ref.FINAL_NEAREST_D12}, "F4 settled")
        expect(values[ref.F4_STABLE_FROM - 2] != ref.FINAL_NEAREST_D12, True, "F4 onset")

    ops.append(Op("scan_range", lambda: mf.scan_range(F4(), ref.D12, scaled, 1, 2000),
                  check_scan, 2000))

    for backend, policy in (("scaled", scaled), ("rational", rational)):
        ops.append(Op(f"ledger.{backend}", lambda p=policy: _ledger_and_c(p),
                      lambda r, b=backend: _check_ledger(*r, b), 38))
    return ops


def _series_kernel(label: str) -> str:
    return "arithmetic" if label == "rational" else "interpreter"


def _ledger_and_c(policy):
    ledger = series_engine.build_ledger(ref.D17, policy, 38)
    return ledger, series_engine.round_final(ledger.circumference, policy)


def _check_ledger(ledger, c: int, backend: str) -> None:
    """Compare a 38-row final-nearest D = 10**17 ledger with the reference."""
    if backend == "scaled":
        m = math.isqrt(12 * ref.D17**2 * 10**80)
        xs = [m // 3**k for k in range(38)]
        got = [row.x.mantissa for row in ledger.rows]
        diff = sum((x // (2 * k + 1)) * (-1) ** k for k, x in enumerate(xs))
        expect(ledger.circumference.mantissa, diff, "scaled ledger O - E")
    else:
        x1 = Fraction(math.isqrt(12 * ref.D17**2))
        xs = [x1 / 3**k for k in range(38)]
        got = [row.x for row in ledger.rows]
        diff = sum(x / (2 * k + 1) * (-1) ** k for k, x in enumerate(xs))
        expect(ledger.circumference, diff, "rational ledger O - E")
    expect(got, xs, f"{backend} ledger rows")
    expect(c, ref.varman_ledger("final-nearest", backend, 38)[3], f"{backend} ledger C")


# ---------------------------------------------------------------------------
# digits: digit-pair roots and numerals through their public functions

# (radicand digit lengths, operations per pass) of the isqrt size classes;
# counts give each class a comparable share of busy time.
ISQRT_CLASSES = {"1-6": (range(1, 7), 600), "36": ([36], 80), "80": ([80], 40),
                 "400": ([400], 8), "2000": ([2000], 2)}
SCALED_CLASSES = {40: 80, 400: 6, 1000: 2}  # fractional digits: operations per pass
TRACED_OPS = 160  # isqrt_traced, radicand lengths 1..80 in turn
ROUND_TRIPS = 60  # katapayadi encode -> decode of 20-digit integers
BHUTA_OPS = 1500  # decode_bhutasamkhya: 1/5 historical, 3/5 digit words, 1/5 magnitudes


def _random_digits(rng: random.Random, length: int) -> int:
    return rng.randrange(10 ** (length - 1), 10**length) if length > 1 else rng.randrange(1, 10)


def _isqrt_op(kind: str, n: int) -> Op:
    want = ref.isqrt_rem(n)
    return Op(kind, lambda: aryabhata_sqrt.isqrt(n),
              lambda r: expect(r, want, f"isqrt of a {ndigits(n)}-digit radicand"),
              (ndigits(n) + 1) // 2, (n,))


def _traced_op(n: int) -> Op:
    root, rem = ref.isqrt_rem(n)

    def check(trace) -> None:
        expect((trace.root, trace.remainder, trace.digits()), (root, rem, str(root)),
               f"isqrt_traced of a {ndigits(n)}-digit radicand")

    return Op("isqrt_traced", lambda: aryabhata_sqrt.isqrt_traced(n), check,
              (ndigits(n) + 1) // 2, (n,))


def _scaled_op(a: int, frac: int) -> Op:
    want = (math.isqrt(a * 10 ** (2 * frac)), frac, Fraction(1, 10**frac))
    return Op(f"sqrt_scaled.{frac}", lambda: aryabhata_sqrt.sqrt_scaled(a, frac),
              lambda v: expect((v.mantissa, v.scale, v.error_bound), want,
                               f"sqrt_scaled({a}, {frac})"),
              (ndigits(a) + 2 * frac + 1) // 2, (a, frac))


def _round_trip_op(n: int) -> Op:
    syllables = ref.katapayadi_encoding(n)

    def call():
        tokens = numerals.encode_katapayadi(n)
        return tokens, numerals.decode_katapayadi(tokens)

    def check(result) -> None:
        tokens, back = result
        expect(([t.text for t in tokens], back), (syllables, n), f"katapayadi round-trip {n}")

    return Op("katapayadi", call, check, 2 * len(syllables), (n,))


def _bhuta_op(words: list[str], value: int) -> Op:
    return Op("bhutasamkhya", lambda: numerals.decode_bhutasamkhya(words),
              lambda v: expect(v, value, f"bhutasamkhya {' '.join(words)}"), len(words),
              tuple(words))


def digit_ops(ctx: Context, rng: random.Random) -> list[Op]:
    ops = []
    for kind, (lengths, count) in ISQRT_CLASSES.items():
        for i in range(count):
            ops.append(_isqrt_op(f"isqrt.{kind}", _random_digits(rng, lengths[i % len(lengths)])))
    for i in range(TRACED_OPS):
        ops.append(_traced_op(_random_digits(rng, 1 + i % 80)))
    for frac, count in SCALED_CLASSES.items():
        ops.extend(_scaled_op(rng.randrange(100, 1000), frac) for _ in range(count))
    ops.extend(_round_trip_op(rng.randrange(10**19, 10**20)) for _ in range(ROUND_TRIPS))

    words = sorted(ctx.digit_words)
    magnitudes = sorted(ctx.magnitude_words)
    for i in range(BHUTA_OPS):
        if i % 5 == 0:
            ops.append(_bhuta_op(ref.WORDS, ref.WORDS_VALUE))
        elif i % 5 == 4:
            w, m = rng.choice(words), rng.choice(magnitudes)
            ops.append(_bhuta_op([w, m], int(ctx.digit_words[w]) * 10 ** ctx.magnitude_words[m]))
        else:
            phrase = [rng.choice(words) for _ in range(2 + i % 11)]
            value = int("".join(ctx.digit_words[w] for w in reversed(phrase)))
            ops.append(_bhuta_op(phrase, value))
    return ops


# Inputs above Python's 4300-digit int<->str limit.  At the parent commit
# these raise ValueError from str()/int() inside the library; the benchmark
# never raises the limit.
def probe_ops(rng: random.Random) -> list[Op]:
    big = [_random_digits(rng, length) for length in (4500, 6000, 4400)]
    return [
        _isqrt_op("probe.isqrt", big[0]),
        _isqrt_op("probe.isqrt", big[1]),
        _traced_op(big[2]),
        _scaled_op(2, 2200),
        _scaled_op(3, 2500),
        _round_trip_op(_random_digits(rng, 4400)),
    ]


def is_digit_limit_error(exc: BaseException) -> bool:
    return type(exc) is ValueError and "integer string conversion" in str(exc)
