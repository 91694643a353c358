#!/usr/bin/env bash
# Checks of the real entry point, python -m paridhi.cli, one command line each.
# Run it from any directory as `bash tests/entry_point.sh`; it stops at the first failed check.
set -eu -o pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'echo "$0: line $LINENO failed" >&2' ERR

fail() { echo "$0: line ${BASH_LINENO[-2]}: $*" >&2; exit 1; }
cli() { python -m paridhi.cli "$@"; }
# exits CODE cmd...: cmd exits with CODE.
exits() { local code=0; "${@:2}" 2> "$tmp/err" || code=$?; [ "$code" -eq "$1" ] || fail "exit code $code, not $1: $(< "$tmp/err")"; }
# prints TEXT cmd...: cmd exits 0 and its whole stdout is TEXT.
prints() { local out; out=$("${@:2}") || fail "exit code $?"; [ "$out" = "$1" ] || fail "stdout is not the expected text"; }
# has_line LINE cmd...: cmd exits 0 and one line of its stdout is LINE.
has_line() { local out; out=$("${@:2}") || fail "exit code $?"; grep -qxF -- "$1" <<< "$out" || fail "no stdout line $1"; }
# fails_with TEXT cmd...: cmd exits 1 and its stderr holds TEXT.
fails_with() { exits 1 "${@:2}"; grep -qF -- "$1" "$tmp/err" || fail "stderr lacks $1"; }

for t in varman-ledger table2 table3 table-f4 f3-fixed-points; do cli reproduce --table "$t" | cmp - "tests/golden/${t//-/_}.txt"; done
cli sqrt --trace 987654321 | cmp - tests/golden/sqrt_trace.txt
for f in f1 f2 f3 f4; do cli circumference --formula "$f" --diameter 900000000000 --terms 5 --policy floor --format json | grep -F "\"formula\": \"$f\"" > /dev/null; done
exits 1 cli varman --diameter 0
exits 1 cli varman --diameter 100 --policy nearest --frac-digits -3
exits 1 cli circumference --formula f4 --diameter 900000000000 --terms 5 --policy final-nearest --backend rational --frac-digits -3
prints 2827433387851 cli circumference --formula f2 --correction c3 --diameter 900000000000 --terms 1000000 --policy floor
prints 2827433388364 cli circumference --formula f2 --correction c3 --diameter 900000000000 --terms 1000000 --policy nearest
exits 1 cli circumference --formula f2 --correction c3 --diameter 900000000000 --terms 1000001 --policy floor
fails_with "error bound ≤ 24 ulp at 0 fractional digits" cli circumference --formula f2 --diameter 900000000000 --terms 30 --policy final-nearest --frac-digits 0
prints 2827433388231 cli circumference --formula f2 --correction c3 --diameter 900000000000 --terms 100000 --policy final-nearest --backend rational
cli fixed-point --formula f3 --policy final-nearest --backend rational --diameter 900000000000 --format json \
  | python -c 'import json, sys; [r] = json.load(sys.stdin); sys.exit((r["fixed_value"], r["onset"], r["max_terms_examined"]) != (2827433388231, 8949, 8999))'
exits 1 cli scan --formula f4 --diameter 900000000000 --from 1 --to 100001 --policy floor
exits 1 cli fixed-point --formula f3 --policy floor --diameter 900000000000 --max-terms 1000001
prints 2827433388231 timeout 20 python -m paridhi.cli circumference --formula f1 --diameter 900000000000 --terms 1000000 --policy final-nearest
timeout 20 python -m paridhi.cli scan --formula f1 --diameter 900000000000 --from 1 --to 100000 --policy final-nearest > /dev/null
exits 1 cli circumference --formula f1 --diameter 900000000000 --terms 5 --policy final-nearest --frac-digits 1001
has_line "C = 314159265358979325" cli varman --diameter 100000000000000000 --policy nearest
has_line "C = 314159265358979324" cli varman --diameter 100000000000000000 --policy final-nearest --frac-digits 2 --terms 38
has_line "C = 314159265358979324" timeout 20 python -m paridhi.cli varman --diameter 100000000000000000 --policy final-nearest --terms 100000
printf 'eka\t1\nmaha\tE1001\n' > "$tmp/lexicon.tsv"
exits 1 cli decode --system bhutasamkhya --lexicon "$tmp/lexicon.tsv" eka maha
exits 1 cli fixed-point --formula f3 --diameter 10000000000000000000000000000000000000000 --policy floor
exits 1 cli fixed-point --formula f3 --diameter 1000000000000000000000000000000000000000000000000000000000000 --policy floor
exits 1 cli scan --formula f2 --diameter 900000000000 --from 1000000000000 --to 1000000000000 --policy floor
prints 314159265358979324 cli decode --system katapayadi bha drā mbu dhi si ddha ja nma ga ṇi ta śra dhā sma ya d bhū pa gīḥ
prints 2827433388233 cli decode --system bhutasamkhya vibudha netra gaja ahi hutāśana tri guna veda bha vārana bāhavāḥ
prints "$(printf '%s\n' 'matching_decimal_places = 17' 'true_floor = 314159265358979323' 'true_nearest = 314159265358979324' 'error_vs_floor = +1' 'error_vs_nearest = +0')" cli compare --circumference 314159265358979324 --diameter 100000000000000000
prints "$(printf '%s\n' 'matching_decimal_places = 10' 'true_floor = 2827433388230' 'true_nearest = 2827433388231' 'error_vs_floor = +3' 'error_vs_nearest = +2')" cli compare --circumference 2827433388233 --diameter 900000000000
prints "kha ka" cli encode 12
prints 82 cli decode --system bhutasamkhya NETRA " Gaja"
prints "ña ka kha ga gha ṅa ca cha ja jha" cli encode 9876543210
out=$(cli decode --system katapayadi $(printf 'kha %.0s' $(seq 5000))); [ "${#out}" -eq 5000 ]
exits 1 cli sqrt 2 --frac-digits 2200
prints "$(python -c 'import math; r = str(math.isqrt(2 * 10**4000)); print(f"root = {r[0]}.{r[1:]}")')" cli sqrt 2 --frac-digits 2000
exits 1 timeout 5 python -m paridhi.cli sqrt 0 --frac-digits 10001
n=$(printf '7%.0s' $(seq 4300))
prints "$(python -c 'import math, sys; n = int(sys.argv[1]); r = math.isqrt(n); print(f"root = {r}\nremainder = {n - r * r}")' "$n")" cli sqrt "$n"
exits 1 cli fixed-point --formula f4 --policy final-nearest --window 20000 --max-terms 10000 --diameter 900000000000
fails_with "from n = 235 for 766 rows" cli fixed-point --formula f4 --policy final-nearest --window 999 --max-terms 1000 --diameter 900000000000
fails_with "from n = 40000000000000000001" cli fixed-point --formula f2 --policy nearest --diameter 10000000000000000000
prints 22 cli circumference --formula f2 --correction c3 --diameter 7 --terms 2 --policy final-floor --backend rational
fails_with "error bound ≤ 2 ulp at 40 fractional digits" cli circumference --formula f2 --correction c3 --diameter 7 --terms 2 --policy final-floor
for argv in "varman --diameter $(printf '9%.0s' $(seq 2200)) --policy floor" \
            "scan --formula f3 --diameter $(printf '9%.0s' $(seq 4300)) --from 1 --to 2 --policy floor --format json"; do
  fails_with "error: a number here has more digits than the interpreter's int/str limit" cli $argv
  if grep -qF Traceback "$tmp/err"; then fail "traceback on stderr"; fi
done
exits 1 timeout 5 python -m paridhi.cli varman --diameter 100000000000000000 --policy final-nearest --backend rational --terms 4001
for expected in floor:3145,2000,2050 nearest:3139,4000,4050; do
  cli fixed-point --formula f2 --policy "${expected%%:*}" --diameter 1000 --format json \
    | python -c 'import json, sys; [r] = json.load(sys.stdin); sys.exit("%(fixed_value)s,%(onset)s,%(max_terms_examined)s" % r != sys.argv[1])' "${expected#*:}"
done
