import math
import re
import time
from fractions import Fraction
from itertools import islice, repeat

import ledger_oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paridhi import madhava_formulas, series_engine
from paridhi.exact_arith import (
    DomainError,
    RoundingMode,
    RoundingUndecidableError,
    ScaledValue,
    nearest_div,
    ratio_round,
)
from paridhi.madhava_formulas import (
    F1,
    F2,
    F3,
    F4,
    AnalyticVanish,
    CorrectionId,
    NoConvergenceError,
    UnsupportedFormulaError,
    WindowedScan,
    circumference,
    correction_fraction,
    fixed_point,
    scan_range,
    vanish_onset,
)
from paridhi.reference_pi import PI_DIGIT_STRING
from paridhi.series_engine import (
    FLOOR_EACH_OP,
    NEAREST_EACH_OP,
    ExactFinal,
    RationalBackend,
    ScaledBackend,
    arithmetic,
)

D = 9 * 10**11
FLOOR = RoundingMode.FLOOR
NEAREST = RoundingMode.NEAREST_HALF_UP
FINAL_FLOOR = ExactFinal(FLOOR, ScaledBackend(40))
FINAL_NEAREST = ExactFinal(NEAREST, ScaledBackend(40))
F2C3 = F2(CorrectionId.C3)


class TestCorrectionValue:
    def test_c1_at_one_is_diameter(self):
        assert 4 * D * correction_fraction(CorrectionId.C1, 1) == D

    def test_c3_at_two(self):
        # F(2) = (4+1)/(2*(16+5)) = 5/42, so the term is 4D*5/42
        assert correction_fraction(CorrectionId.C3, 2) == Fraction(5, 42)

    def test_c3_at_38_nearest(self):
        # n=38: n^2+1 = 1445, n(4n^2+5) = 38*5781
        exact = 4 * D * correction_fraction(CorrectionId.C3, 38)
        assert exact == Fraction(4 * D * 1445, 38 * 5781)
        assert ratio_round(exact, NEAREST) == nearest_div(4 * D * 1445, 38 * 5781)

    def test_c2(self):
        assert correction_fraction(CorrectionId.C2, 3) == Fraction(3, 37)

    @staticmethod
    def convergents(n):
        """The first three convergents P_k/Q_k of 1/(4n + 1^2/(n + 2^2/(4n + 3^2/(n + ...)))),
        top down: P_k = b_k P_(k-1) + a_k P_(k-2), likewise Q_k, from P_(-1), P_0 = 1, 0 and
        Q_(-1), Q_0 = 0, 1, with partial numerators a_k and partial denominators b_k."""
        p_prev, p, q_prev, q = 1, 0, 0, 1
        for a, b in ((1, 4 * n), (1**2, n), (2**2, 4 * n)):
            p_prev, p = p, b * p + a * p_prev
            q_prev, q = q, b * q + a * q_prev
            yield Fraction(p, q)

    @classmethod
    def assert_corrections_are_convergents(cls, n):
        corrections = [correction_fraction(c, n) for c in CorrectionId]
        assert corrections == list(cls.convergents(n)), n

    def test_corrections_are_the_convergents_up_to_2000(self):
        for n in range(1, 2001):
            self.assert_corrections_are_convergents(n)

    @given(n=st.integers(2001, 10**30))
    def test_corrections_are_the_convergents_for_large_n(self, n):
        self.assert_corrections_are_convergents(n)

    def test_integer_policies_round_once(self):
        # F2 sums the same terms under every correction, so at odd n the
        # difference of two corrected sums is that of the two corrections,
        # each rounded once
        for policy, mode in ((FLOOR_EACH_OP, FLOOR), (NEAREST_EACH_OP, NEAREST)):
            c1 = circumference(F2(CorrectionId.C1), D, 7, policy).circumference
            c3 = circumference(F2C3, D, 7, policy).circumference
            r1, r3 = (ratio_round(4 * D * correction_fraction(c, 7), mode)
                      for c in (CorrectionId.C1, CorrectionId.C3))
            assert c1 - c3 == r3 - r1


class TestCircumference:
    def test_f1_row23_nearest(self):
        assert circumference(F1(), D, 23, NEAREST_EACH_OP).circumference == 2827433388231

    def test_f2c3_row38_nearest(self):
        assert circumference(F2C3, D, 38, NEAREST_EACH_OP).circumference == 2827433388233

    def test_f4_row246_nearest(self):
        assert circumference(F4(), D, 246, NEAREST_EACH_OP).circumference == 2827433388233

    def test_f4_row250_floor(self):
        assert circumference(F4(), D, 250, FLOOR_EACH_OP).circumference == 2827433388226

    def test_f2c3_row57_exact_final(self):
        # the exact 57-term value is ~...230.556: floor keeps 230, half-up
        # tips to 231; the reference table cell (230) is the floored one
        rational_floor = ExactFinal(FLOOR, RationalBackend())
        rational_nearest = ExactFinal(NEAREST, RationalBackend())
        assert circumference(F2C3, D, 57, rational_floor).circumference == 2827433388230
        assert circumference(F2C3, D, 57, rational_nearest).circumference == 2827433388231

    def test_f3_exact_leading_term_not_rounded(self):
        assert circumference(F3(), D, 1, FLOOR_EACH_OP).circumference == 3 * D + 4 * D // 24

    def test_determinism(self):
        a = circumference(F2C3, D, 38, NEAREST_EACH_OP)
        b = circumference(F2C3, D, 38, NEAREST_EACH_OP)
        assert a == b

    def test_record_fields(self):
        rec = circumference(F2C3, D, 5, FLOOR_EACH_OP).record()
        assert rec == {
            "formula": "f2",
            "correction": "c3",
            "diameter": D,
            "n": 5,
            "policy": "floor",
            "circumference": rec["circumference"],
        }


class TestScanRange:
    def test_singleton_matches_direct(self):
        single = scan_range(F3(), D, FLOOR_EACH_OP, 5, 5)
        assert len(single) == 1
        assert single[0] == circumference(F3(), D, 5, FLOOR_EACH_OP)

    @pytest.mark.parametrize("formula", [F1(), F2C3, F3(), F4()])
    @pytest.mark.parametrize(
        "policy",
        [FLOOR_EACH_OP, NEAREST_EACH_OP, FINAL_NEAREST, ExactFinal(FLOOR, RationalBackend())],
    )
    def test_incremental_equals_direct(self, formula, policy):
        results = scan_range(formula, D, policy, 3, 12)
        for result in results:
            assert result == circumference(formula, D, result.n, policy)

    @pytest.mark.parametrize("policy", [FLOOR_EACH_OP, NEAREST_EACH_OP])
    def test_f1_past_natural_termination(self, policy):
        # the 10**17 ledger ends after 38 rows; later rows repeat its sum
        results = scan_range(F1(), 10**17, policy, 36, 45)
        assert [r.n for r in results] == list(range(36, 46))
        for result in results:
            assert result == circumference(F1(), 10**17, result.n, policy)

    def test_f1_starting_past_natural_termination(self):
        results = scan_range(F1(), 10**17, FLOOR_EACH_OP, 40, 42)
        assert [(r.n, r.circumference) for r in results] == [
            (n, 314159265358979324) for n in (40, 41, 42)
        ]
        for result in results:
            assert result == circumference(F1(), 10**17, result.n, FLOOR_EACH_OP)

    @pytest.mark.parametrize(
        "correction,n_from,n_to", [(CorrectionId.C1, 25, 40), (CorrectionId.C3, 63, 68)]
    )
    def test_rounds_only_the_rows_it_returns(self, correction, n_from, n_to):
        # at 3 fractional digits some rows before n_from cannot be rounded;
        # the scan must not try
        policy = ExactFinal(FLOOR, ScaledBackend(3))
        results = scan_range(F2(correction), D, policy, n_from, n_to)
        assert [r.n for r in results] == list(range(n_from, n_to + 1))
        for result in results:
            assert result == circumference(F2(correction), D, result.n, policy)

    def test_range_validation(self):
        with pytest.raises(Exception):
            scan_range(F3(), D, FLOOR_EACH_OP, 5, 4)


def _closed_form(formula, k):
    """The denominator of the F3 or F4 term at position k, written out."""
    if isinstance(formula, F3):
        b = 2 * k + 1
        return b**3 - b
    b = 2 * k - 1
    return b**5 + 4 * b


class TestVanishOnset:
    def test_f3_floor(self):
        assert vanish_onset(F3(), D, FLOOR_EACH_OP) == 7663

    def test_f3_nearest(self):
        assert vanish_onset(F3(), D, NEAREST_EACH_OP) == 9655

    def test_f4_floor(self):
        assert vanish_onset(F4(), D, FLOOR_EACH_OP) == 215

    def test_f4_nearest(self):
        assert vanish_onset(F4(), D, NEAREST_EACH_OP) == 247

    @pytest.mark.parametrize(
        "formula,policy,onset",
        [
            (F3(), FLOOR_EACH_OP, 7663),
            (F3(), NEAREST_EACH_OP, 9655),
            (F4(), FLOOR_EACH_OP, 215),
            (F4(), NEAREST_EACH_OP, 247),
        ],
    )
    def test_onset_is_exactly_the_threshold(self, formula, policy, onset):
        # independent check: the rounded term vanishes at the onset and not before
        def term(n):
            return Fraction(formula.factor * D, _closed_form(formula, n))

        assert ratio_round(term(onset), policy.mode) == 0
        assert ratio_round(term(onset - 1), policy.mode) >= 1

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.sampled_from([F3(), F4()]),
        st.sampled_from([FLOOR, NEAREST]),
    )
    @example(1, F3(), NEAREST)
    @example(5, F3(), FLOOR)
    def test_onset_is_the_threshold_for_any_diameter(self, diameter, formula, mode):
        def term(n):
            return Fraction(formula.factor * diameter, _closed_form(formula, n))

        policy = FLOOR_EACH_OP if mode is FLOOR else NEAREST_EACH_OP
        onset = vanish_onset(formula, diameter, policy)
        assert ratio_round(term(onset), mode) == 0
        assert onset == 1 or ratio_round(term(onset - 1), mode) >= 1

    @pytest.mark.parametrize("diameter", [10**40, 10**60, 10**100,  # F3 from 10**60 and F4
                                          pytest.param(int("7" * 4000), id="4000-digits")])
    @pytest.mark.parametrize("formula", [F3(), F4()])  # from 10**100 have onsets past sys.maxsize
    @pytest.mark.parametrize("mode", [FLOOR, NEAREST])
    def test_onset_of_a_huge_diameter(self, diameter, formula, mode):
        policy = FLOOR_EACH_OP if mode is FLOOR else NEAREST_EACH_OP
        onset = vanish_onset(formula, diameter, policy)
        numerator = formula.factor * diameter
        assert mode.div(numerator, _closed_form(formula, onset)) == 0
        assert mode.div(numerator, _closed_form(formula, onset - 1)) >= 1

    def test_small_f3_diameters_vanish_at_the_first_term(self):
        # the first F3 term is 4D/24, below 1 exactly for D <= 5
        onsets = [vanish_onset(F3(), d, FLOOR_EACH_OP) for d in range(1, 7)]
        assert onsets == [1, 1, 1, 1, 1, 2]

    def test_unsupported_formulas(self):
        with pytest.raises(UnsupportedFormulaError, match="not f1$"):
            vanish_onset(F1(), D, FLOOR_EACH_OP)
        with pytest.raises(UnsupportedFormulaError, match="not f2$"):
            vanish_onset(F2C3, D, FLOOR_EACH_OP)
        with pytest.raises(UnsupportedFormulaError):
            vanish_onset(F3(), D, FINAL_NEAREST)


class TestFixedPoint:
    def test_f3_floor_analytic(self):
        report = fixed_point(F3(), D, FLOOR_EACH_OP, max_terms=10**4)
        assert report.fixed_value == 2827433388211
        assert report.onset == 7663
        assert report.method == AnalyticVanish()

    def test_f3_nearest_analytic(self):
        report = fixed_point(F3(), D, NEAREST_EACH_OP, max_terms=10**4)
        assert (report.fixed_value, report.onset) == (2827433388236, 9655)

    def test_f3_exact_final_nearest(self):
        report = fixed_point(F3(), D, FINAL_NEAREST, window=50, max_terms=10**4)
        assert report.fixed_value == 2827433388231
        assert report.onset <= 8950
        assert report.method == WindowedScan(50)

    def test_f4_exact_final_nearest(self):
        report = fixed_point(F4(), D, FINAL_NEAREST, window=50, max_terms=10**3)
        assert (report.fixed_value, report.onset) == (2827433388231, 235)

    def test_f2_integer_policies_never_settle(self):
        with pytest.raises(NoConvergenceError):
            fixed_point(F2C3, D, NEAREST_EACH_OP, window=50, max_terms=10**4)

    @pytest.mark.parametrize(
        "policy,value,onset",
        [(FLOOR_EACH_OP, 3145, 2000), (NEAREST_EACH_OP, 3139, 4000)],
    )
    def test_f2_integer_policies_settle_past_the_bound(self, policy, value, onset):
        report = fixed_point(F2C3, 1000, policy)
        assert (report.fixed_value, report.onset, report.max_terms_examined) == (
            value, onset, onset + 50,
        )
        assert report.method == WindowedScan(50)

    @pytest.mark.parametrize("correction", [CorrectionId.C1, CorrectionId.C2, CorrectionId.C3])
    @pytest.mark.parametrize("policy,bound", [(FLOOR_EACH_OP, 2001), (NEAREST_EACH_OP, 4001)])
    def test_f2_settle_bound(self, correction, policy, bound):
        # the terms 4D/(2n-1) are the last to vanish: from 2n-1 > 4D (floor) or > 8D (nearest)
        assert F2(correction).onset(1000, policy) == bound

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10**30),
        st.sampled_from(list(CorrectionId)),
        st.sampled_from([FLOOR, NEAREST]),
        st.integers(min_value=0, max_value=10**30),
    )
    @example(1, CorrectionId.C1, FLOOR, 0)
    @example(10**30, CorrectionId.C3, NEAREST, 10**30)
    def test_f2_onset_is_the_closed_form_term_onset(self, diameter, correction, mode, later):
        assert "onset" not in vars(F2)  # F2 inherits _Formula's term onset
        policy = FLOOR_EACH_OP if mode is FLOOR else NEAREST_EACH_OP
        small = Fraction(1) if mode is FLOOR else Fraction(1, 2)  # what rounds to 0
        onset = F2(correction).onset(diameter, policy)
        assert onset == (2 if mode is FLOOR else 4) * diameter + 1
        assert Fraction(4 * diameter, 2 * onset - 3) >= small > Fraction(4 * diameter, 2 * onset - 1)
        for n in (onset, onset + later):  # 4D*F(n) <= D/n, which only falls as n grows
            assert 4 * diameter * correction_fraction(correction, n) <= Fraction(diameter, n) < small

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=300),
        st.sampled_from(list(CorrectionId)),
        st.sampled_from([FLOOR, NEAREST]),
        st.integers(min_value=1, max_value=60),
    )
    @example(300, CorrectionId.C3, NEAREST, 50)
    @example(1, CorrectionId.C1, FLOOR, 1)
    def test_f2_integer_fixed_point_matches_a_full_scan(self, diameter, correction, mode, window):
        policy = FLOOR_EACH_OP if mode is FLOOR else NEAREST_EACH_OP
        # the bound by exact rationals: floor rounds x to 0 iff x < 1, half-up iff x < 1/2
        small = Fraction(1) if mode is FLOOR else Fraction(1, 2)
        bound = next(
            n for n in range(1, 10**4)
            if Fraction(4 * diameter, 2 * n - 1) < small
            and 4 * diameter * correction_fraction(correction, n) < small
        )
        assert F2(correction).onset(diameter, policy) == bound
        values = [r.circumference for r in scan_range(
            F2(correction), diameter, policy, 1, bound + window
        )]
        onset = len(values)
        while onset > 1 and values[onset - 2] == values[-1]:
            onset -= 1
        report = fixed_point(F2(correction), diameter, policy, window)
        assert (report.fixed_value, report.onset, report.max_terms_examined) == (
            values[-1], onset, max(onset + window, bound),
        )

    def test_f2_bound_past_max_terms_raises_before_scanning(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("scanned")

        monkeypatch.setattr(F2, "values", no_scan)
        start = time.perf_counter()
        with pytest.raises(NoConvergenceError, match=r"from n = 1800000000001$"):
            fixed_point(F2C3, D, FLOOR_EACH_OP, max_terms=2 * 10**5)
        assert time.perf_counter() - start < 0.2

    @pytest.mark.parametrize("formula,policy", [(F4(), FINAL_NEAREST), (F2C3, FLOOR_EACH_OP)])
    @pytest.mark.parametrize("window", [10**4, 2 * 10**4])
    def test_a_window_not_below_max_terms_raises_before_scanning(
        self, monkeypatch, formula, policy, window
    ):
        # a run of `window` equal values needs window + 1 rows, so no scan could end in one
        def no_scan(*args):
            raise AssertionError("scanned")

        monkeypatch.setattr(type(formula), "values", no_scan)
        message = rf"within 10000 terms: a window of {window} needs at least {window + 1}$"
        with pytest.raises(NoConvergenceError, match=message):
            fixed_point(formula, D, policy, window=window, max_terms=10**4)

    def test_the_widest_window_below_max_terms_is_scanned(self):
        scanned = (r"^no convergence detected within 1000 terms \(window 999\); the last value, "
                   r"2827433388231, held from n = 235 for 766 rows$")
        with pytest.raises(NoConvergenceError, match=scanned):
            fixed_point(F4(), D, FINAL_NEAREST, window=999, max_terms=1000)
        report = fixed_point(F4(), D, FINAL_NEAREST, window=765, max_terms=1000)
        assert (report.fixed_value, report.onset, report.max_terms_examined) == (
            2827433388231, 235, 1000,
        )

    @pytest.mark.parametrize("formula,policy", [(F3(), FLOOR_EACH_OP), (F4(), NEAREST_EACH_OP)])
    def test_the_analytic_path_ignores_the_window(self, formula, policy):
        assert fixed_point(formula, D, policy, window=2 * 10**4) == fixed_point(formula, D, policy)

    @pytest.mark.parametrize(
        "formula,diameter,policy,onset",
        [
            (F1(), 10**17, FLOOR_EACH_OP, 38),
            (F1(), 10**17, NEAREST_EACH_OP, 39),
            (F3(), D, NEAREST_EACH_OP, 9655),
            (F4(), D, FLOOR_EACH_OP, 215),
        ],
    )
    def test_analytic_onset_past_max_terms_raises(self, formula, diameter, policy, onset):
        message = rf"within {onset - 1} terms; every term rounds to zero only from n = {onset}$"
        with pytest.raises(NoConvergenceError, match=message):
            fixed_point(formula, diameter, policy, max_terms=onset - 1)
        assert fixed_point(formula, diameter, policy, max_terms=onset).onset == onset

    def test_analytic_onset_past_max_terms_raises_before_summing(self, monkeypatch):
        def no_sum(*args):
            raise AssertionError("summed")

        monkeypatch.setattr(madhava_formulas, "circumference", no_sum)
        start = time.perf_counter()
        with pytest.raises(NoConvergenceError, match=r"from n = 17099759466767$"):
            fixed_point(F3(), 10**40, FLOOR_EACH_OP)
        assert time.perf_counter() - start < 0.2

    def test_f1_natural_termination(self):
        report = fixed_point(F1(), 10**17, FLOOR_EACH_OP, max_terms=100)
        assert report.fixed_value == 314159265358979324
        assert report.onset == 38
        assert report.method == AnalyticVanish()

    @pytest.mark.parametrize(
        "policy,value,onset",
        [
            (FINAL_NEAREST, 2827433388231, 23),
            (FINAL_FLOOR, 2827433388230, 24),
            (ExactFinal(NEAREST, RationalBackend()), 2827433388230, 23),
        ],
    )
    def test_f1_exact_final(self, policy, value, onset):
        report = fixed_point(F1(), D, policy)
        assert (report.fixed_value, report.onset) == (value, onset)
        assert (report.method, report.max_terms_examined) == (WindowedScan(50), onset + 50)

    def test_windowed_invariant(self):
        report = fixed_point(F4(), D, FINAL_NEAREST, window=50, max_terms=10**3)
        values = scan_range(F4(), D, FINAL_NEAREST, report.onset, report.onset + 50)
        assert {r.circumference for r in values} == {report.fixed_value}


class TestPermanence:
    @pytest.mark.parametrize("policy", [FLOOR_EACH_OP, NEAREST_EACH_OP])
    def test_f4_constant_beyond_onset(self, policy):
        onset = vanish_onset(F4(), D, policy)
        results = scan_range(F4(), D, policy, onset, onset + 100)
        assert len({r.circumference for r in results}) == 1

    def test_f3_constant_beyond_onset(self):
        onset = vanish_onset(F3(), D, FLOOR_EACH_OP)
        results = scan_range(F3(), D, FLOOR_EACH_OP, onset, onset + 100)
        assert len({r.circumference for r in results}) == 1


class TestPolicySandwich:
    @settings(max_examples=40)
    @given(
        st.sampled_from([F2(CorrectionId.C1), F2C3, F3(), F4()]),
        st.integers(min_value=1, max_value=10**12),
        st.integers(min_value=1, max_value=60),
    )
    def test_floor_nearest_gap(self, formula, diameter, n):
        lo = circumference(formula, diameter, n, FLOOR_EACH_OP).circumference
        hi = circumference(formula, diameter, n, NEAREST_EACH_OP).circumference
        assert abs(hi - lo) <= n + 1


class TestBracketingAndCorrection:
    def test_leibniz_brackets_and_c3_improves(self):
        # test-local exact Leibniz sums: successive partial sums bracket
        # pi*D, and attaching the C3 correction shrinks the error
        pi_d = Fraction(PI_DIGIT_STRING) * D
        partial = Fraction(0)
        for n in range(1, 101):
            term = Fraction(4 * D, 2 * n - 1)
            partial += term if n % 2 == 1 else -term
            if n % 2 == 1:
                assert partial > pi_d
            else:
                assert partial < pi_d
            corr = Fraction(4 * D) * correction_fraction(CorrectionId.C3, n)
            corrected = partial + corr if n % 2 == 0 else partial - corr
            assert abs(corrected - pi_d) < abs(partial - pi_d)


class TestBackendAgreement:
    @pytest.mark.parametrize("formula", [F2C3, F3(), F4()])
    @pytest.mark.parametrize("mode", [FLOOR, NEAREST])
    def test_scaled_matches_rational_up_to_200(self, formula, mode):
        scaled = scan_range(formula, D, ExactFinal(mode, ScaledBackend(40)), 1, 200)
        rational = scan_range(formula, D, ExactFinal(mode, RationalBackend()), 1, 200)
        assert [r.circumference for r in scaled] == [r.circumference for r in rational]


def _oracle(formula, diameter, n, mode, round_each):
    """Circumferences for 1..n terms, summed term by term in plain Fractions.

    round_each rounds every term and every correction, and each of F1's
    divisions by 3 (the integer policies); otherwise only the final sum is
    rounded, and F1 starts from the floor root of 12 D^2 (the rational
    backend's).
    """
    if mode is FLOOR:
        rnd = math.floor
    else:
        def rnd(q):
            return math.floor(q + Fraction(1, 2))
    each = rnd if round_each else Fraction
    total = Fraction(3 * diameter if isinstance(formula, F3) else 0)
    # F1's x_1: the floor root of 12 D^2, or under per-operation half-up the nearest root
    root = math.isqrt(12 * diameter**2)
    x = root + (round_each and mode is NEAREST and 12 * diameter**2 - root * root > root)
    values = []
    for k in range(1, n + 1):
        if isinstance(formula, F1):  # the ledger's chain: x_k / (2k - 1), then x_k / 3
            term, x = Fraction(x, 2 * k - 1), each(Fraction(x, 3))
        elif isinstance(formula, F2):
            term = Fraction(4 * diameter, 2 * k - 1)
        elif isinstance(formula, F3):
            term = Fraction(4 * diameter, (2 * k + 1) ** 3 - (2 * k + 1))
        else:
            term = Fraction(16 * diameter, (2 * k - 1) ** 5 + 4 * (2 * k - 1))
        total += each(term) if k % 2 else -each(term)
        value = total
        if isinstance(formula, F2):
            f = {
                CorrectionId.C1: Fraction(1, 4 * k),
                CorrectionId.C2: Fraction(k, 4 * k * k + 1),
                CorrectionId.C3: Fraction(k * k + 1, k * (4 * k * k + 5)),
            }[formula.correction]
            corr = each(4 * diameter * f)
            value = total + corr if k % 2 == 0 else total - corr
        values.append(rnd(value))
    return values


EVERY_FORMULA = [F1(), *(F2(c) for c in CorrectionId), F3(), F4()]


class TestOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10**18),
        st.sampled_from(EVERY_FORMULA),
        st.integers(min_value=1, max_value=60),
        st.sampled_from([FLOOR, NEAREST]),
    )
    def test_every_policy_matches_a_fraction_oracle(self, diameter, formula, n, mode):
        integer = FLOOR_EACH_OP if mode is FLOOR else NEAREST_EACH_OP
        for policy, round_each in ((integer, True), (ExactFinal(mode, RationalBackend()), False)):
            want = _oracle(formula, diameter, n, mode, round_each)
            assert circumference(formula, diameter, n, policy).circumference == want[-1]
            scan = scan_range(formula, diameter, policy, 1, n)
            assert [r.circumference for r in scan] == want
        if isinstance(formula, F1):  # on scaled it starts from the true root, not the floor root
            return
        try:
            scaled = circumference(formula, diameter, n, ExactFinal(mode, ScaledBackend(40)))
        except RoundingUndecidableError:
            return
        assert scaled.circumference == want[-1]


# the four arithmetics; scaled at 0-6 digits, where undecidable roundings occur
EVERY_POLICY = [FLOOR_EACH_OP, NEAREST_EACH_OP] + [
    ExactFinal(mode, backend)
    for mode in (FLOOR, NEAREST)
    for backend in (RationalBackend(), ScaledBackend(40), *map(ScaledBackend, range(7)))
]
ARITHMETICS = [FLOOR_EACH_OP, NEAREST_EACH_OP, RationalBackend(), *map(ScaledBackend, (0, 3, 40))]


def _outcome(call):
    """What call returns, or the message of the RoundingUndecidableError it raises."""
    try:
        return call()
    except RoundingUndecidableError as exc:
        return f"undecidable: {exc}"


def _row_by_row(formula, diameter, policy, n):
    """The circumference of n terms, each formed on its own in the policy's arithmetic
    (a ScaledValue, a Fraction or the policy's rounded ratio) and added one at a time,
    F2's correction attached, with only the sum of all n rounded."""
    a = arithmetic(policy)
    if isinstance(a, ScaledBackend):
        def ratio(p, q):
            return ScaledValue.from_ratio(p, q, a.frac_digits)
    else:
        ratio = Fraction if isinstance(a, RationalBackend) else policy.mode.div
    if isinstance(formula, F1):
        terms = [row.t for row in islice(ledger_oracle.rows(diameter, policy), n)]
    else:
        d = (lambda k: 2 * k - 1) if isinstance(formula, F2) else formula.denominator
        terms = [ratio(formula.factor * diameter, d(k)) for k in range(1, n + 1)]
    total = a.value(formula.leading * diameter * a.unit)
    for k, t in enumerate(terms, 1):
        total = total + t if k % 2 else total - t
    if isinstance(formula, F2):
        f = correction_fraction(formula.correction, n)
        corr = ratio(4 * diameter * f.numerator, f.denominator)
        total = total + corr if n % 2 == 0 else total - corr
    return policy.round(total)


def _ledger_outcomes(diameter, policy, n):
    """F1's circumference of each n' in 1..n from the typed chain's rows summed one at a time,
    or the message of the RoundingUndecidableError it raises; past an integer ledger's last
    row the sum repeats."""
    total, outcomes = arithmetic(policy).value(0), []
    for row in islice(ledger_oracle.rows(diameter, policy), n):
        total = total + row.t if row.k % 2 else total - row.t
        outcomes.append(_outcome(lambda: policy.round(total)))
    return outcomes + outcomes[-1:] * (n - len(outcomes))


def _row_outcomes(formula, diameter, policy, n_from, n_to):
    """The circumference of each n in n_from..n_to, or the message of the
    RoundingUndecidableError its row raises; reading resumes after such a row."""
    outcomes = []
    while len(outcomes) <= n_to - n_from:
        try:
            outcomes.extend(value for _, value in
                            formula.values(diameter, policy, n_from + len(outcomes), n_to))
        except RoundingUndecidableError as exc:
            outcomes.append(f"undecidable: {exc}")
    return outcomes


class TestDenominators:
    @given(
        st.sampled_from([F3(), F4()]),
        st.integers(min_value=1, max_value=10**12),
        st.sampled_from([1, 2]),
        st.integers(min_value=-2, max_value=40),
    )
    @example(F3(), 1, 2, 0)
    @example(F4(), 2, 1, -1)
    def test_a_range_of_positions_gives_the_closed_forms(self, formula, start, step, count):
        ks = range(start, start + count * step, step)  # odd and even starts; empty when count <= 0
        want = [_closed_form(formula, k) for k in ks]
        assert list(formula.denominators(ks)) == want
        assert [formula.denominator(k) for k in ks] == want


class TestBulkSums:
    """circumference sums its first row in bulk; the row-by-row sum must agree."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(EVERY_FORMULA),
        st.sampled_from(EVERY_POLICY),
        st.integers(min_value=1, max_value=10**18),
        st.integers(min_value=1, max_value=300),
    )
    @example(F2C3, ExactFinal(NEAREST, ScaledBackend(0)), D, 30)  # "error bound ≤ 24 ulp ..."
    def test_bulk_matches_the_row_by_row_sum(self, formula, policy, diameter, n):
        bulk = _outcome(lambda: circumference(formula, diameter, n, policy).circumference)
        row_by_row = _outcome(lambda: _row_by_row(formula, diameter, policy, n))
        # on scaled, F1's bound is tighter than its ledger's: compare where the ledger decides
        if not (isinstance(formula, F1) and isinstance(row_by_row, str)):
            assert bulk == row_by_row

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(EVERY_FORMULA),
        st.sampled_from(EVERY_POLICY),
        st.integers(min_value=1, max_value=10**18),
        st.integers(min_value=1, max_value=300),
    )
    def test_circumference_is_the_last_row_of_a_scan_from_one(self, formula, policy, diameter, n):
        try:
            last = scan_range(formula, diameter, policy, 1, n)[-1].circumference
        except RoundingUndecidableError as exc:
            # the scan stops at its first undecidable row, where circumference fails alike
            direct = (_outcome(lambda: circumference(formula, diameter, m, policy).circumference)
                      for m in range(1, n + 1))
            assert next(v for v in direct if isinstance(v, str)) == f"undecidable: {exc}"
        else:
            assert circumference(formula, diameter, n, policy).circumference == last

    @given(
        st.sampled_from(ARITHMETICS),
        st.integers(min_value=0, max_value=10**30),
        st.lists(st.integers(min_value=1, max_value=10**15), max_size=40),
    )
    def test_each_sum_is_the_sum_of_its_ratios(self, a, numerator, ds):
        # for nearest this checks Hermite's identity against nearest_div term by term
        splits = [a.split(numerator * a.unit, d) for d in ds]
        want = sum(q for q, _ in splits), sum(r != 0 for _, r in splits)
        assert a.sum_ratios(numerator * a.unit, iter(ds)) == want

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(EVERY_FORMULA),
        st.sampled_from(EVERY_POLICY),
        st.integers(min_value=1, max_value=10**18),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=300),
    )
    @example(F2C3, ExactFinal(NEAREST, ScaledBackend(0)), D, 25, 40)
    def test_a_scan_from_any_row_is_the_tail_of_a_scan_from_one(self, formula, policy,
                                                                  diameter, n, m):
        n_from, n_to = min(n, m), max(n, m)
        tail = _row_outcomes(formula, diameter, policy, 1, n_to)[n_from - 1:]
        assert _row_outcomes(formula, diameter, policy, n_from, n_to) == tail
        # scan_range stops at its first undecidable row
        first_error = next((v for v in tail if isinstance(v, str)), None)
        scan = _outcome(lambda: [r.circumference
                                 for r in scan_range(formula, diameter, policy, n_from, n_to)])
        assert scan == (first_error or tail)

    @pytest.mark.parametrize(
        "policy",
        [FLOOR_EACH_OP, NEAREST_EACH_OP, FINAL_NEAREST, ExactFinal(NEAREST, RationalBackend())],
    )
    def test_scan_past_a_long_head(self, policy):
        results = scan_range(F2C3, D, policy, 10**5, 10**5 + 3)
        assert [r.n for r in results] == list(range(10**5, 10**5 + 4))
        for result in results:
            assert result == circumference(F2C3, D, result.n, policy)

    @pytest.mark.parametrize("formula", EVERY_FORMULA)
    @pytest.mark.parametrize("policy", [FLOOR_EACH_OP, NEAREST_EACH_OP, FINAL_NEAREST,
                                        ExactFinal(FLOOR, RationalBackend())])
    @pytest.mark.parametrize("diameter", [0, -1])
    def test_non_positive_diameter_is_a_domain_error(self, formula, policy, diameter):
        with pytest.raises(DomainError, match="diameter must be positive"):
            circumference(formula, diameter, 5, policy)
        with pytest.raises(DomainError, match="diameter must be positive"):
            scan_range(formula, diameter, policy, 1, 5)
        with pytest.raises(DomainError, match="diameter must be positive"):
            fixed_point(formula, diameter, policy)

    def test_f1_analytic_fixed_point_walks_no_ledger(self, monkeypatch):
        calls = []
        monkeypatch.setattr(series_engine, "build_ledger", _spy(series_engine.build_ledger, calls))
        report = fixed_point(F1(), 10**17, FLOOR_EACH_OP, max_terms=100)
        assert report.record() == {
            "formula": "f1", "correction": "", "diameter": 10**17, "policy": "floor",
            "fixed_value": 314159265358979324, "onset": 38, "method": "analytic-vanish",
            "max_terms_examined": 38,
        }
        assert calls == []

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([RationalBackend(), *map(ScaledBackend, (0, 3, 40))]),
        st.integers(min_value=1, max_value=10**18),
        st.integers(min_value=1, max_value=300),
    )
    def test_f1_rows_bound_every_term(self, a, diameter, n):
        # every row sums all its terms, even past the first zero quotient, and c is at least
        # the sum of (r_k + e)/d_k over them
        top = F1.top(diameter, ExactFinal(FLOOR, a))
        x, e, _ = top
        m = bound = 0
        for want_n, (k, got_m, got_c) in enumerate(F1().sums(top, a, 1, n), 1):
            d = 3 ** (k - 1) * (2 * k - 1)
            q, r = a.split(x, d)
            m, bound = m + q if k % 2 else m - q, bound + Fraction(r + e, d)
            assert (k, got_m) == (want_n, m)
            assert got_c >= bound
        assert want_n == n

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(EVERY_POLICY),
        st.integers(min_value=1, max_value=10**18),
        st.integers(min_value=1, max_value=300),
    )
    @example(ExactFinal(FLOOR, ScaledBackend(1)), 1, 60)
    @example(NEAREST_EACH_OP, 10**17, 45)
    def test_f1_reads_the_ledgers_values(self, policy, diameter, n):
        ledger = _ledger_outcomes(diameter, policy, n)
        f1 = _row_outcomes(F1(), diameter, policy, 1, n)
        if not isinstance(arithmetic(policy), ScaledBackend):
            assert f1 == ledger
            return
        # its bound is never wider than the ledger's: it decides every row the ledger decides
        for by_ledger, value in zip(ledger, f1):
            assert isinstance(by_ledger, str) or value == by_ledger


ROUNDED_FORMULAS = [*(F2(c) for c in CorrectionId), F3(), F4()]  # the (m, c) readers


LEVEL_FORMULAS = [F2C3, F3(), F4()]
# diameters weighted to <= 10**6, where the level walk engages within 600 terms, up to 10**30
LEVEL_DIAMETERS = st.one_of(st.integers(min_value=1, max_value=10**6),
                            st.integers(min_value=1, max_value=10**30))


def _plain_head(formula, numerator, mode, n):
    """The first n rounded terms' alternating sum as two plain bulk passes, odd minus even."""
    odd, even = (formula.denominators(range(k, n + 1, 2)) for k in (1, 2))
    return mode.sum_div(numerator, odd) - mode.sum_div(numerator, even)


class TestLevels:
    """Under EachOp the first row counts its small rounded terms by level; it must equal the
    plain sum of every term, wherever the split falls."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(LEVEL_FORMULAS), st.sampled_from([FLOOR, NEAREST]), LEVEL_DIAMETERS,
           st.integers(min_value=1, max_value=600), st.sampled_from([None, 1, 2, 10**9]))
    @example(F3(), FLOOR, 9 * 10**11, 600, None)
    @example(F4(), NEAREST, 10**6, 1, None)
    def test_the_first_row_is_the_plain_head(self, formula, mode, diameter, n, level_cost):
        # the split moves with the level cost; 10**9 stops after the first level
        policy = series_engine.EachOp(mode)
        with pytest.MonkeyPatch.context() as patch:
            if level_cost is not None:
                patch.setattr(madhava_formulas, "_LEVEL_COST", level_cost)
            [(_, m, c)] = madhava_formulas._Formula.sums(formula, diameter, policy, n, n)
        head = _plain_head(formula, formula.factor * diameter, mode, n)
        assert (m, c) == (formula.leading * diameter + head, 0)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(LEVEL_FORMULAS), st.sampled_from([FLOOR, NEAREST]), LEVEL_DIAMETERS,
           st.integers(min_value=1, max_value=600), st.data())
    def test_the_identity_holds_at_a_forced_split(self, formula, mode, diameter, n, data):
        # head(k0) + (-1)^k0 (r_n ((n - k0) mod 2) + sum((kappa(v) - k0) mod 2 for v in
        # r_n + 1..r_(k0 + 1))), kappa(v) = count(level(N, v)), for a split k0 in 0..n drawn
        # from those with at most 10**4 levels, which from D = 10**6 on leaves out k0 = 0
        numerator = formula.factor * diameter
        r = [None] + [mode.div(numerator, formula.denominator(k)) for k in range(1, n + 1)]
        lowest = next(k for k in range(n + 1) if k == n or r[k + 1] - r[n] <= 10**4)
        k0 = data.draw(st.integers(min_value=lowest, max_value=n), label="k0")
        top = r[k0 + 1] if k0 < n else r[n]
        levels = sum((formula.count(mode.level(numerator, v)) - k0) % 2
                     for v in range(r[n] + 1, top + 1))
        tail = (-1) ** k0 * (r[n] * ((n - k0) % 2) + levels)
        head = _plain_head(formula, numerator, mode, k0)
        assert head + tail == _plain_head(formula, numerator, mode, n)

    @pytest.mark.parametrize("mode", [FLOOR, NEAREST])
    @pytest.mark.parametrize("formula, n", [(F2C3, 10**6), (F2C3, 40), (F3(), 5), (F4(), 5)])
    def test_a_head_of_large_quotients_walks_one_level(self, monkeypatch, formula, n, mode):
        # r_n * _LEVEL_COST > n: level r_n + 2 stands for under _LEVEL_COST terms, so the walk
        # stops there, after one or two counts, and its split still gives the plain head
        numerator = formula.factor * D
        assert mode.div(numerator, formula.denominator(n)) * madhava_formulas._LEVEL_COST > n
        calls = []
        monkeypatch.setattr(type(formula), "count", staticmethod(_spy(formula.count, calls)))
        [(_, m, c)] = madhava_formulas._Formula.sums(formula, D, series_engine.EachOp(mode), n, n)
        assert 1 <= len(calls) <= 2
        assert (m, c) == (formula.leading * D + _plain_head(formula, numerator, mode, n), 0)

    @given(st.sampled_from(LEVEL_FORMULAS), st.integers(min_value=1, max_value=10**200),
           st.integers(min_value=0, max_value=10**6))
    @example(F3(), 1, 0)
    @example(F4(), 1, 0)
    @example(F2C3, 1, 0)
    def test_count_inverts_the_denominators(self, formula, k, spare):
        # each count is checked bare and from a hint at least its value, as the walk passes
        d = formula.denominator(k)
        for x in (d - 1, d, d + 1):
            want = k - (x < d)  # d_(k+1) > d_k + 1, so only d_1..d_k can be at most x
            if k <= 2000:  # and a linear count agrees
                assert sum(formula.denominator(j) <= x for j in range(1, k + 3)) == want
            assert formula.count(x) == want
            assert formula.count(x, want + spare) == want

    def test_the_f3_fixed_point_of_a_parardha_divides_under_a_tenth_of_its_terms(
            self, monkeypatch):
        # The plain pass divides all 368403 terms up to the onset.  The level walk stops near
        # (3/2 c D)^(1/4) terms, c the level cost: about 27800 (7.5 %) at c = 4, and under a
        # tenth for any c up to 8; so a tenth fails only if the walk stops far too early.
        divided = []

        def sum_div(n, ds):
            ds = list(ds)
            divided.append(len(ds))
            return plain(n, ds)

        plain = FLOOR.sum_div
        monkeypatch.setattr(FLOOR, "sum_div", sum_div)
        report = fixed_point(F3(), 10**17, FLOOR_EACH_OP, max_terms=10**6)
        assert (report.fixed_value, report.onset) == (314159265358979298, 368403)
        assert 0 < sum(divided) <= 368403 // 10


class _NarrowRational(RationalBackend):
    """The rational backend reading its sums at 1 digit, so that most rows reach the exact sum."""

    frac_digits = 1


# rational; scaled at 0-6 digits, where undecidable roundings occur, and at 40
EXACT_BACKENDS = [RationalBackend(), _NarrowRational(), *map(ScaledBackend, (*range(7), 40))]
# (formula, D, n, mode): the exact sum lies on a rounding boundary of the mode and at
# least one division is inexact at any number of digits
TIES = [
    (F2C3, 7, 2, FLOOR),  # 28 - 28/3 + 10/3 = 22
    (F2C3, 205, 3, FLOOR),
    (F2(CorrectionId.C1), 255255, 9, FLOOR),
    (F3(), 255255, 8, FLOOR),
    (F4(), 555, 3, FLOOR),
    (F4(), 1365, 4, FLOOR),
    (F2C3, 145145, 8, NEAREST),
    (F2C3, 435435, 8, NEAREST),
]


def _exact(formula, diameter, n):
    """The sum of n terms that the final policies round (F2's with its correction), in
    Fractions straight from the definitions."""
    if isinstance(formula, F2):
        total = sum(Fraction((-1) ** (k + 1) * 4 * diameter, 2 * k - 1) for k in range(1, n + 1))
        return total + (-1) ** n * 4 * diameter * correction_fraction(formula.correction, n)
    if isinstance(formula, F3):
        return 3 * diameter + sum(
            Fraction((-1) ** (k + 1) * 4 * diameter, (2 * k + 1) ** 3 - (2 * k + 1))
            for k in range(1, n + 1))
    return sum(Fraction((-1) ** (k + 1) * 16 * diameter, (2 * k - 1) ** 5 + 4 * (2 * k - 1))
               for k in range(1, n + 1))


def _boundary_distance(value, mode):
    """How far an exact value lies from the nearest rounding boundary of the mode."""
    offset = value - (value.numerator // value.denominator)  # in [0, 1)
    if mode is NEAREST:
        return abs(offset - Fraction(1, 2))
    return min(offset, 1 - offset)


def _spy(fn, calls):
    def spied(*args):
        calls.append(args)
        return fn(*args)

    return spied


class TestIntegerState:
    """Exact-final sums are read as (mantissa, error bound) at the backend's digits."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(  # F1 on the rational backends only, as the oracle starts from the floor root
            st.tuples(st.sampled_from(ROUNDED_FORMULAS), st.sampled_from(EXACT_BACKENDS)),
            st.tuples(st.just(F1()), st.sampled_from([RationalBackend(), _NarrowRational()])),
        ),
        st.sampled_from([FLOOR, NEAREST]),
        st.integers(min_value=1, max_value=10**18),
        st.integers(min_value=1, max_value=300),
    )
    @example((F2C3, RationalBackend()), FLOOR, 7, 2)
    @example((F2C3, _NarrowRational()), NEAREST, 145145, 8)
    @example((F1(), _NarrowRational()), NEAREST, 10**17, 60)
    def test_readers_match_the_fraction_oracle(self, case, mode, diameter, n):
        formula, backend = case
        want = _oracle(formula, diameter, n, mode, round_each=False)
        got = []
        try:
            rows = formula.values(diameter, ExactFinal(mode, backend), 1, n)
            got.extend(value for _, value in rows)
        except RoundingUndecidableError:
            assert isinstance(backend, ScaledBackend)  # only a fixed precision may give up
        assert got == want[:len(got)]
        if not isinstance(backend, ScaledBackend):
            assert len(got) == n

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(ROUNDED_FORMULAS),
        st.sampled_from([FLOOR, NEAREST]),
        st.sampled_from([*range(7), 40]),
        st.integers(min_value=1, max_value=10**18),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=15),
    )
    def test_scaled_agrees_with_rational_wherever_it_decides(self, formula, mode, digits,
                                                              diameter, n_from, rows):
        rational = ExactFinal(mode, RationalBackend())
        scaled_policy = ExactFinal(mode, ScaledBackend(digits))
        exact = dict(formula.values(diameter, rational, n_from, n_from + rows))
        for n, value in exact.items():
            try:
                scaled = circumference(formula, diameter, n, scaled_policy)
            except RoundingUndecidableError as exc:
                # the verdict is genuine: the exact sum lies within twice the stated bound
                ulps = int(re.search(r"≤ (\d+) ulp", str(exc)).group(1))
                distance = _boundary_distance(_exact(formula, diameter, n), mode)
                assert distance < Fraction(2 * ulps, 10**digits)
            else:
                assert scaled.circumference == value

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([FLOOR, NEAREST]),
        st.sampled_from([*range(7), 40]),
        st.integers(min_value=1, max_value=10**18),
        st.integers(min_value=1, max_value=300),
    )
    @example(NEAREST, 0, 1, 1)
    def test_f1_on_scaled_rounds_the_true_sum(self, mode, digits, diameter, n):
        # sqrt(12 D^2) lies in [root, root + 1] / 10**t, so the true sum of n terms lies
        # between those ends times S = 1 - 1/(3*3) + 1/(3^2*5) - ...
        t = digits + 30
        root = math.isqrt(12 * diameter**2 * 100**t)
        series = sum(Fraction((-1) ** (k + 1), 3 ** (k - 1) * (2 * k - 1)) for k in range(1, n + 1))
        lo, hi = (ratio_round(r * series / 10**t, mode) for r in (root, root + 1))
        got = _outcome(lambda: circumference(
            F1(), diameter, n, ExactFinal(mode, ScaledBackend(digits))).circumference)
        if lo == hi and not isinstance(got, str):  # a decided row is the true rounding
            assert got == lo

    @pytest.mark.parametrize("formula,diameter,n,mode", TIES)
    def test_ties_reach_the_exact_rung(self, formula, diameter, n, mode, monkeypatch):
        assert _boundary_distance(_exact(formula, diameter, n), mode) == 0
        for digits in (40, 320):  # no precision decides a tie
            with pytest.raises(RoundingUndecidableError):
                circumference(formula, diameter, n, ExactFinal(mode, ScaledBackend(digits)))
        exact_heads = []
        monkeypatch.setattr(RationalBackend, "sum_ratios",
                            staticmethod(_spy(RationalBackend.sum_ratios, exact_heads)))
        got = circumference(formula, diameter, n, ExactFinal(mode, RationalBackend()))
        assert got.circumference == _oracle(formula, diameter, n, mode, round_each=False)[-1]
        assert len(exact_heads) == 2  # the odd and the even positions, once

    def test_an_undecided_scaled_row_is_summed_once(self, monkeypatch):
        # the scaled backend's own sum is the read in hand: no second pass before the error
        reads = []
        monkeypatch.setattr(F2, "sums", _spy(F2.sums, reads))
        with pytest.raises(RoundingUndecidableError, match="error bound ≤ 24 ulp at 0 fractional"):
            circumference(F2C3, D, 30, ExactFinal(NEAREST, ScaledBackend(0)))
        assert [arithmetic for _, _, arithmetic, _, _ in reads] == [ScaledBackend(0)]

    def test_a_row_is_read_once_then_summed_exactly(self, monkeypatch):
        one_digit = ExactFinal(NEAREST, ScaledBackend(1))
        undecided = [n for n in range(1, 41) if isinstance(
            _outcome(lambda: circumference(F3(), 1, n, one_digit).circumference), str)]
        assert len(undecided) > 10
        # one read of every row at 1 digit, then the exact sum of each row it leaves undecided
        reads, narrow = [], _NarrowRational()
        monkeypatch.setattr(F3, "sums", _spy(F3.sums, reads))
        rows = scan_range(F3(), 1, ExactFinal(NEAREST, narrow), 1, 40)
        assert [r.circumference for r in rows] == _oracle(F3(), 1, 40, NEAREST, round_each=False)
        assert [args[2:] for args in reads] == [
            (ScaledBackend(1), 1, 40), *((narrow, n, n) for n in undecided)]

    @pytest.mark.parametrize("backend", [RationalBackend(), ScaledBackend(40)])
    def test_rows_build_no_scaled_value_or_fraction(self, backend, monkeypatch):
        # one head per parity, then two ints per row
        heads = []
        monkeypatch.setattr(ScaledBackend, "sum_ratios",
                            staticmethod(_spy(ScaledBackend.sum_ratios, heads)))
        monkeypatch.setattr(ScaledValue, "__post_init__", None)  # no ScaledValue can be built
        monkeypatch.setattr(RationalBackend, "split", None)
        monkeypatch.setattr(RationalBackend, "sum_ratios", None)
        report = fixed_point(F3(), D, ExactFinal(NEAREST, backend))
        found = (report.fixed_value, report.onset, report.max_terms_examined)
        assert found == (2827433388231, 8949, 8999)
        assert len(heads) == 2
