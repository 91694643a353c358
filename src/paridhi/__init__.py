"""paridhi: exact-arithmetic reconstruction of Kerala-school circle computations.

The package evaluates the root-12 alternating series and the four
attributed circumference formulas under three rounding policies (floor at
every operation, round-half-up at every operation, or exact values with a
single final rounding), computes integer square roots by the digit-pair
method with auditable traces, and decodes the katapayadi and bhutasamkhya
numeral systems.  Everything is exact: no floating point anywhere.
"""

from .aryabhata_sqrt import (
    SqrtStep,
    SqrtTrace,
    isqrt,
    isqrt_nearest,
    isqrt_traced,
    sqrt_scaled,
)
from .exact_arith import (
    DomainError,
    RoundingMode,
    RoundingUndecidableError,
    ScaledValue,
    decimal_string,
    floor_div,
    nearest_div,
    ratio_round,
)
from .madhava_formulas import (
    F1,
    F2,
    F3,
    F4,
    AnalyticVanish,
    ComputationResult,
    ConvergenceReport,
    CorrectionId,
    FormulaId,
    NoConvergenceError,
    UnsupportedFormulaError,
    WindowedScan,
    circumference,
    correction_fraction,
    fixed_point,
    scan_range,
    vanish_onset,
)
from .numerals import (
    BhutasamkhyaLexicon,
    DecodeError,
    SyllableToken,
    decode_bhutasamkhya,
    decode_katapayadi,
    encode_katapayadi,
    katapayadi_digits,
    load_lexicon,
    parse_syllable,
)
from .reference_pi import (
    InsufficientPrecisionError,
    matching_decimal_places,
    true_circumference,
)
from .series_engine import (
    FLOOR_EACH_OP,
    NEAREST_EACH_OP,
    EachOp,
    ExactFinal,
    LedgerRow,
    Policy,
    RationalBackend,
    ScaledBackend,
    SeriesLedger,
    build_ledger,
    varman_circumference,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
