"""Command-line front-end: every operation and every reference table.

Every integer argument and flag is read as a plain decimal integer (ASCII
digits with an optional leading '-'); exponents, dots, underscores, '+',
spaces and non-ASCII digits are rejected, so no value ever passes through
floating point.
Exit codes: 0 success, 1 domain error (message on stderr) or a closed stdout,
2 usage error.

A known command's line of exact flags, values not starting with '-' and one run of
positionals is read from that command's sub-parser's own argparse tables; the
top-level parser parses every other line, so every error, help text, abbreviation
and '=' form is argparse's own. JSON output is the text of json.dumps(records,
ensure_ascii=False, indent=2), built per record from key prefixes made once and
values encoded at C level.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from json.encoder import encode_basestring

from .aryabhata_sqrt import SqrtTrace, isqrt, isqrt_nearest, isqrt_traced, sqrt_scaled
from .exact_arith import DomainError, RoundingMode, ScaledValue, decimal_string, int_to_digits
from .madhava_formulas import (
    F2,
    F3,
    F4,
    FORMULAS,
    CorrectionId,
    FormulaId,
    NoConvergenceError,
    circumference,
    fixed_point,
    scan_range,
    vanish_onset,
)
from .numerals import decode_bhutasamkhya, decode_katapayadi, encode_katapayadi, load_lexicon
from .reference_pi import matching_decimal_places, true_circumference
from .series_engine import (
    FLOOR_EACH_OP,
    NEAREST_EACH_OP,
    ExactFinal,
    Policy,
    RationalBackend,
    ScaledBackend,
    SeriesLedger,
    build_ledger,
    round_final,
)

TABLE_DIAMETER = 9 * 10**11
LEDGER_DIAMETER = 10**17
MAX_SCAN_ROWS, MAX_TERMS_CAP = 10**5, 10**6  # caps on `scan` rows; `--terms`, `--max-terms`, `--to`
MAX_FRAC_DIGITS = 1000  # cap on a series' --frac-digits: each term's work grows with the digits
MAX_RATIONAL_LEDGER_TERMS = 4000  # cap on exact `varman` rows: its Fraction sums grow quadratically
MAX_SQRT_FRAC_DIGITS = 10**4  # cap on `sqrt --frac-digits` where the int/str limit is off or n = 0
_PLAIN_INT = re.compile(r"-?[0-9]+").fullmatch  # the one spelling of an integer argument


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from calling sys.exit directly
        raise UsageError(message)


def _parse_exact(parser: argparse.ArgumentParser, args: list[str]) -> argparse.Namespace | None:
    """argparse's namespace for a line of flags spelled in full, each store flag followed by a
    value not starting with '-', and one run of positionals; else None, also on a failed check."""
    seen, run, gap, tokens = {}, [], False, iter(args)

    def read(action, text):  # argparse's type conversion and choices check
        parser._check_value(action, value := parser._get_value(action, text))
        return value

    try:
        for text in tokens:
            action = parser._option_string_actions.get(text)
            if action is None:  # '--', '--flag=value', an abbreviation, '-5' or a split run
                if text.startswith("-") or gap:
                    return None
                run.append(text)
            elif type(action) is argparse._StoreTrueAction:
                seen[action], gap = True, bool(run)
            elif type(action) is argparse._StoreAction and action.nargs is None and not (
                    value := next(tokens, "-")).startswith("-"):
                seen[action], gap = read(action, value), bool(run)
            else:  # -h, --help, a flag without its value
                return None
        for action in parser._get_positional_actions():  # one value each, or the rest for '+'
            if not run or action.nargs not in (None, "+"):
                return None
            taken, run = (run, []) if action.nargs else (run[:1], run[1:])
            values = [read(action, text) for text in taken]
            seen[action] = values if action.nargs else values[0]
    except argparse.ArgumentError:
        return None
    if run or any(action.required and action not in seen for action in parser._actions):
        return None
    # the defaults as parse_known_args sets them; no str default here has a type to apply
    names = {action.dest: action.default for action in parser._actions
             if action not in seen and argparse.SUPPRESS not in (action.dest, action.default)}
    names.update((action.dest, value) for action, value in seen.items())
    return argparse.Namespace(**{**parser._defaults, **names})


def _plain_int(text: str) -> int:
    if not _PLAIN_INT(text):
        raise argparse.ArgumentTypeError(
            f"plain decimal integer required (no exponents or dots): {text[:20]!r}"
        )
    try:
        return int(text)
    except ValueError:  # past the interpreter's int/str limit; argparse would echo it all
        raise argparse.ArgumentTypeError(
            f"integer of {len(text.lstrip('-'))} digits is longer than the interpreter's "
            f"limit of {sys.get_int_max_str_digits()}: {text[:20]}..."
        ) from None


def _check_cap(flag: str, value: int | None, cap: int = MAX_TERMS_CAP) -> None:
    if value is not None and value > cap:
        raise DomainError(f"{flag} is at most {cap}")


def _make_policy(code: str, backend: str = "scaled", frac_digits: int = 40) -> Policy:
    _check_cap("--frac-digits", frac_digits, MAX_FRAC_DIGITS)
    scaled = ScaledBackend(frac_digits)  # rejects a negative frac_digits whatever the backend
    back = RationalBackend() if backend == "rational" else scaled
    policies = [FLOOR_EACH_OP, NEAREST_EACH_OP, *(ExactFinal(mode, back) for mode in RoundingMode)]
    return next(policy for policy in policies if str(policy) == code)


def _make_formula(code: str, correction: str | None) -> FormulaId:
    if code == F2.code:
        return F2(CorrectionId(correction or CorrectionId.C3.value))
    if correction is not None:
        raise UsageError("--correction applies only to --formula f2")
    return FORMULAS[code]()


# ---------------------------------------------------------------------------
# rendering


def _cell(value) -> str:
    """Exact decimal rendering for ledger cells of any backend."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, ScaledValue):
        return value.decimal(6)
    return decimal_string(value, 6)


def _aligned(headers: list[str], rows: list[list]) -> str:
    cells = [[str(c) for c in row] for row in [headers, *rows]]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "".join(
        " | ".join(c.rjust(w) for c, w in zip(row, widths)).rstrip() + "\n" for row in cells
    )


def _write(fmt: str, headers: list[str], rows: list[list], table) -> str:
    """The one writer: CSV or JSON records of the rows, else `table(headers, rows)`."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "json":  # json.dumps's indent=2 text; int.__repr__ refuses anything not an int
        keys = [f"\n    {encode_basestring(h)}: " for h in headers]
        records = [",".join([key + (encode_basestring(v) if type(v) is str else int.__repr__(v))
                             for key, v in zip(keys, row)]) for row in rows]
        return "[\n  {" + "\n  },\n  {".join(records) + "\n  }\n]\n" if rows else "[]\n"
    return table(headers, rows)


LEDGER_HEADERS = ["k", "x_k", "divisor", "sign", "t_k"]
TRACE_HEADERS = ["place", "working", "divisor_or_square", "digit", "subtracted"]


def _ledger_rows(ledger: SeriesLedger) -> list[list]:
    return [[row.k, _cell(row.x), 2 * row.k - 1, row.sign, _cell(row.t)] for row in ledger.rows]


def _ledger_table(headers: list[str], rows: list[list]) -> str:
    return "k | x_k | div | sign | t_k\n" + "".join(
        f"{k} | {x} | (÷{d}) | {'+' if sign > 0 else '-'} | {t}\n" for k, x, d, sign, t in rows
    )


def _write_records(fmt: str, records: list[dict], table) -> str:
    return _write(fmt, list(records[0]), [list(r.values()) for r in records], table)


def _result_table(headers: list[str], rows: list[list]) -> str:
    n, c = headers.index("n"), headers.index("circumference")
    return _aligned(["n", "circumference"], [[row[n], row[c]] for row in rows]) if rows else ""


def _key_values(**fields) -> str:
    return "".join(f"{key} = {value}\n" for key, value in fields.items())


def _trace_rows(trace: SqrtTrace) -> list[list]:
    return [["" if field is None else field for field in step] for step in trace.steps]


def _worksheet(trace: SqrtTrace) -> str:
    """The classical long-division worksheet: the leading step, then (even, odd) step pairs."""
    lead, *steps = trace.steps
    root = str(lead.digit_emitted)
    rows = [[f"{lead.working_value} -", root, f"floor(sqrt({lead.working_value})) = {root}"],
            [lead.subtracted, "", f"{root}^2 = {lead.subtracted}"]]
    pairs = iter(steps)
    for even, odd in zip(pairs, pairs):
        q, divisor = even.digit_emitted, f"(2*{root})"  # the root so far, before this digit
        root += str(q)
        rows += [[f"{even.working_value} -", root, f"floor({even.working_value}/{divisor}) = {q}"],
                 [even.subtracted, "", f"{q}*{divisor} = {even.subtracted}"],
                 [f"{odd.working_value} -", "", ""],
                 [odd.subtracted, "", f"{q}^2 = {odd.subtracted}"]]
    table = _aligned(["computations", "result", "notes"], rows)
    return f"n = {trace.input}\n{table}root = {trace.root}\nremainder = {trace.remainder}\n"


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_sqrt(args) -> str:
    if args.trace + (args.round == "nearest") + (args.frac_digits is not None) > 1:
        raise UsageError("--trace, --round nearest and --frac-digits exclude each other")
    if args.format != "table" and not args.trace:
        raise UsageError(f"--format {args.format} requires --trace")
    if args.trace:
        trace = isqrt_traced(args.n)
        return _write(args.format, TRACE_HEADERS, _trace_rows(trace), lambda *_: _worksheet(trace))
    if args.frac_digits is not None:
        digits, limit = len(str(args.n)) + 2 * args.frac_digits, sys.get_int_max_str_digits()
        if args.n > 0 and 0 < limit < digits:  # the digit-pair root reads the radicand with str()
            raise DomainError(f"n * 10^(2 * frac_digits) has {digits} digits, more than the "
                              f"interpreter's int/str limit of {limit}")
        _check_cap("--frac-digits", args.frac_digits, MAX_SQRT_FRAC_DIGITS)
        scaled = sqrt_scaled(args.n, args.frac_digits)
        return f"root = {scaled.decimal()}\n"
    if args.round == "nearest":
        return f"root = {isqrt_nearest(args.n)}\n"
    root, remainder = isqrt(args.n)
    return f"root = {root}\nremainder = {remainder}\n"


def _cmd_varman(args) -> str:
    policy = _make_policy(args.policy, args.backend, args.frac_digits)
    _check_cap("--terms", args.terms)
    if policy.backend == RationalBackend():
        _check_cap("--terms under a final policy on the rational backend", args.terms,
                   MAX_RATIONAL_LEDGER_TERMS)
    ledger = build_ledger(args.diameter, policy, args.terms)
    summary = _key_values(terms=len(ledger.rows), O=_cell(ledger.odd_sum),
                          E=_cell(ledger.even_sum), C=round_final(ledger.circumference, policy))
    if not args.ledger:
        return summary
    return _write(args.format, LEDGER_HEADERS, _ledger_rows(ledger),
                  lambda headers, rows: _ledger_table(headers, rows) + summary)


def _cmd_circumference(args) -> str:
    formula = _make_formula(args.formula, args.correction)
    policy = _make_policy(args.policy, args.backend, args.frac_digits)
    _check_cap("--terms", args.terms)
    result = circumference(formula, args.diameter, args.terms, policy)
    return _write_records(args.format, [result.record()], lambda *_: f"{result.circumference}\n")


def _cmd_scan(args) -> str:
    formula = _make_formula(args.formula, args.correction)
    if args.n_to - args.n_from >= MAX_SCAN_ROWS:
        raise DomainError(f"scan covers at most {MAX_SCAN_ROWS} rows")
    _check_cap("--to", args.n_to)  # its first row sums the whole head
    if args.policy != "all":
        if args.final_mode is not None:
            raise UsageError("--final-mode applies only to --policy all")
        policy = _make_policy(args.policy, args.backend, args.frac_digits)
        results = scan_range(formula, args.diameter, policy, args.n_from, args.n_to)
        return _write_records(args.format, [r.record() for r in results], _result_table)
    # the floor, nearest and one final-rounding scan side by side, one row per n
    codes = ("floor", "nearest", f"final-{args.final_mode or 'nearest'}")
    scans = [scan_range(formula, args.diameter, _make_policy(code, args.backend, args.frac_digits),
                        args.n_from, args.n_to) for code in codes]
    rows = [[results[0].n, *(r.circumference for r in results)] for results in zip(*scans)]
    return _write(args.format, ["n", *(code.replace("-", "_") for code in codes)], rows, _aligned)


def _cmd_fixed_point(args) -> str:
    formula = _make_formula(args.formula, args.correction)
    policy = _make_policy(args.policy, args.backend, args.frac_digits)
    _check_cap("--max-terms", args.max_terms)
    record = fixed_point(formula, args.diameter, policy, args.window, args.max_terms).record()
    return _write_records(args.format, [record], lambda *_: _key_values(**record))


def _cmd_onset(args) -> str:
    formula = _make_formula(args.formula, None)
    policy = _make_policy(args.policy)
    return f"{vanish_onset(formula, args.diameter, policy)}\n"


def _cmd_decode(args) -> str:
    if args.system == "katapayadi":
        if args.lexicon is not None:
            raise UsageError("--lexicon applies only to --system bhutasamkhya")
        return int_to_digits(decode_katapayadi(args.tokens)) + "\n"
    lexicon = load_lexicon(args.lexicon) if args.lexicon is not None else None
    return int_to_digits(decode_bhutasamkhya(args.tokens, lexicon)) + "\n"


def _cmd_encode(args) -> str:
    tokens = encode_katapayadi(args.n)
    return " ".join(t.text for t in tokens) + "\n"


def _cmd_compare(args) -> str:
    places = matching_decimal_places(args.circumference, args.diameter)
    floor_true = true_circumference(args.diameter, RoundingMode.FLOOR)
    nearest_true = true_circumference(args.diameter, RoundingMode.NEAREST_HALF_UP)
    return _key_values(
        matching_decimal_places=places, true_floor=floor_true, true_nearest=nearest_true,
        error_vs_floor=f"{args.circumference - floor_true:+d}",
        error_vs_nearest=f"{args.circumference - nearest_true:+d}",
    )


# ---------------------------------------------------------------------------
# reference tables


def _reproduce_f3_fixed_points() -> str:
    rows = []
    for code in ("floor", "nearest", "final-nearest"):
        report = fixed_point(F3(), TABLE_DIAMETER, _make_policy(code))
        rows.append([report.policy, report.fixed_value, report.onset, report.method])
    return _aligned(["policy", "fixed_value", "onset", "method"], rows)


@functools.cache  # each reference table's command line is parsed once per process
def _parsed(line: str) -> argparse.Namespace:
    return build_parser().parse_args(line.split())


_REPRODUCERS = {  # the three-policy tables are the output of these public `scan` lines
    "varman-ledger": lambda: _ledger_table(
        LEDGER_HEADERS, _ledger_rows(build_ledger(LEDGER_DIAMETER, FLOOR_EACH_OP))),
    "table2": lambda: _cmd_scan(_parsed("scan --formula f1 --diameter 900000000000 "
                                        "--from 18 --to 27 --policy all --final-mode floor")),
    "table3": lambda: _cmd_scan(_parsed("scan --formula f2 --correction c3 --diameter 900000000000 "
                                        "--from 35 --to 65 --policy all --final-mode floor")),
    "table-f4": lambda: _cmd_scan(_parsed("scan --formula f4 --diameter 900000000000 "
                                          "--from 210 --to 250 --policy all --final-mode nearest")),
    "f3-fixed-points": _reproduce_f3_fixed_points,
}


def _cmd_reproduce(args) -> str:
    return _REPRODUCERS[args.table]()


# ---------------------------------------------------------------------------
# parser


FORMATS = ["table", "csv", "json"]
MODE_CHOICES = [mode.value for mode in RoundingMode]
POLICY_CHOICES = MODE_CHOICES + [f"final-{mode}" for mode in MODE_CHOICES]


def _add_backend_flags(sub) -> None:
    sub.add_argument("--backend", choices=["scaled", "rational"], default="scaled")
    sub.add_argument("--frac-digits", type=_plain_int, default=40)
    sub.add_argument("--format", choices=FORMATS, default="table")


def _add_series_flags(sub, policies: list[str]) -> None:
    sub.add_argument("--formula", choices=list(FORMULAS), required=True)
    sub.add_argument("--correction", choices=[c.value for c in CorrectionId], default=None,
                     help="correction term of f2 (default c3)")
    sub.add_argument("--diameter", type=_plain_int, required=True)
    sub.add_argument("--policy", choices=policies, required=True)
    _add_backend_flags(sub)


@functools.cache  # one parser per process; callers must not mutate it
def build_parser() -> argparse.ArgumentParser:
    # --help shows the docstring but its last paragraph, which is for readers of this code
    parser = _Parser(prog="paridhi", description=__doc__.rsplit("\n\n", 1)[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sqrt", help="integer square root by the digit-pair method")
    p.add_argument("n", type=_plain_int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--round", choices=MODE_CHOICES, default="floor")
    p.add_argument("--frac-digits", type=_plain_int, default=None)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(handler=_cmd_sqrt)

    p = subs.add_parser("varman", help="root-12 series ledger and circumference")
    p.add_argument("--diameter", type=_plain_int, required=True)
    p.add_argument("--policy", choices=POLICY_CHOICES, default="floor")
    p.add_argument("--terms", type=_plain_int, default=None)
    p.add_argument("--ledger", action="store_true")
    _add_backend_flags(p)
    p.set_defaults(handler=_cmd_varman)

    p = subs.add_parser("circumference", help="evaluate one formula at n terms")
    _add_series_flags(p, POLICY_CHOICES)
    p.add_argument("--terms", type=_plain_int, required=True)
    p.set_defaults(handler=_cmd_circumference)

    p = subs.add_parser("scan", help="evaluate a formula over a range of n")
    _add_series_flags(p, POLICY_CHOICES + ["all"])
    p.add_argument("--from", dest="n_from", type=_plain_int, required=True)
    p.add_argument("--to", dest="n_to", type=_plain_int, required=True)
    p.add_argument("--final-mode", choices=MODE_CHOICES, default=None,
                   help="final rounding used for the third column of --policy all (default nearest)")
    p.set_defaults(handler=_cmd_scan)

    p = subs.add_parser("fixed-point", help="detect the value a series settles on")
    _add_series_flags(p, POLICY_CHOICES)
    p.add_argument("--window", type=_plain_int, default=50)
    p.add_argument("--max-terms", type=_plain_int, default=10**4)
    p.set_defaults(handler=_cmd_fixed_point)

    p = subs.add_parser("onset", help="smallest n whose rounded term vanishes")
    p.add_argument("--formula", choices=[F3.code, F4.code], required=True)
    p.add_argument("--policy", choices=MODE_CHOICES, required=True)
    p.add_argument("--diameter", type=_plain_int, required=True)
    p.set_defaults(handler=_cmd_onset)

    p = subs.add_parser("decode", help="decode letter- or word-numerals")
    p.add_argument("--system", choices=["katapayadi", "bhutasamkhya"], required=True)
    p.add_argument("--lexicon", default=None)
    p.add_argument("tokens", nargs="+")
    p.set_defaults(handler=_cmd_decode)

    p = subs.add_parser("encode", help="encode an integer as letter-numerals")
    p.add_argument("--system", choices=["katapayadi"], default="katapayadi")
    p.add_argument("n", type=_plain_int)
    p.set_defaults(handler=_cmd_encode)

    p = subs.add_parser("compare", help="compare a circumference with the reference")
    p.add_argument("--circumference", type=_plain_int, required=True)
    p.add_argument("--diameter", type=_plain_int, required=True)
    p.set_defaults(handler=_cmd_compare)

    p = subs.add_parser("reproduce", help="emit a reference table")
    p.add_argument("--table", choices=sorted(_REPRODUCERS), required=True)
    p.set_defaults(handler=_cmd_reproduce)

    parser.commands = subs.choices  # name -> sub-parser: execute parses a command's own args
    return parser


def execute(argv: list[str]) -> tuple[int, str, str]:
    """Run one command line; returns (exit_code, stdout, stderr)."""
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    captured_out, captured_err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(captured_out), redirect_stderr(captured_err):
            args = (_parse_exact(sub, argv[1:]) if sub else None) or parser.parse_args(argv)
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0), captured_out.getvalue(), captured_err.getvalue()
    except UsageError as exc:
        usage = parser.format_usage()
        return 2, "", f"error: {exc}\n{usage}"
    try:
        return 0, args.handler(args), ""
    except UsageError as exc:
        return 2, "", f"error: {exc}\n"
    except (DomainError, NoConvergenceError) as exc:
        return 1, "", f"error: {exc}\n"
    except ValueError as exc:  # an int read or printed through str() past the interpreter's limit
        if "integer string conversion" not in str(exc):
            raise
        return 1, "", (f"error: a number here has more digits than the interpreter's int/str "
                       f"limit of {sys.get_int_max_str_digits()}\n")


def main(argv: list[str] | None = None) -> int:
    code, out, err = execute(sys.argv[1:] if argv is None else argv)
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except BrokenPipeError:  # stdout's reader is gone; devnull keeps the exit flush from failing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    sys.stderr.write(err)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
