"""Hand-worked cases for the benchmark's FP oracle.

Run with ``python3 -m pytest perfbench/tests`` from the checkout root.
"""

import struct
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import oracle as O  # noqa: E402

FP16, BF16, FP32, FP48, FP64 = (O.FORMATS[n] for n in ("fp16", "bf16", "fp32", "fp48", "fp64"))


def f32(x: float) -> int:
    return struct.unpack("<I", struct.pack("<f", x))[0]


def f64(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


ONE32 = 0x3F800000


class TestFp32Ties:
    def test_tie_to_even_rounds_down(self):
        # 1 + 2**-24 lies exactly halfway between 1 and 1 + 2**-23;
        # the even neighbour is 1.0.
        word, inexact = O.round_value(FP32, 1 + Fraction(1, 1 << 24), "rne")
        assert word == ONE32 and inexact

    def test_tie_to_even_rounds_up(self):
        # 1 + 3 * 2**-24 is halfway between 1 + 2**-23 (odd) and
        # 1 + 2**-22 (even).
        word, inexact = O.round_value(FP32, 1 + Fraction(3, 1 << 24), "rne")
        assert word == ONE32 + 2 and inexact

    def test_above_half_rounds_up(self):
        x = 1 + Fraction(1, 1 << 24) + Fraction(1, 1 << 40)
        assert O.round_value(FP32, x, "rne") == (ONE32 + 1, True)

    def test_truncation_drops_tail(self):
        x = 1 + Fraction(3, 1 << 24)
        assert O.round_value(FP32, x, "rtz") == (ONE32 + 1, True)

    def test_negative_tie(self):
        word, inexact = O.round_value(FP32, -(1 + Fraction(1, 1 << 24)), "rne")
        assert word == ONE32 | 1 << 31 and inexact

    def test_carry_into_next_binade(self):
        # 2 - 2**-25 rounds up to 2.0 under rne, down to the largest
        # significand under rtz.
        x = 2 - Fraction(1, 1 << 25)
        assert O.round_value(FP32, x, "rne") == (0x40000000, True)
        assert O.round_value(FP32, x, "rtz") == (0x3FFFFFFF, True)

    def test_exact_value_is_not_inexact(self):
        assert O.round_value(FP32, Fraction(3, 4), "rne") == (f32(0.75), False)


class TestOps:
    def test_one_third(self):
        one, three = f32(1.0), f32(3.0)
        assert O.exact_op("div", FP32, "rne", one, three) == (0x3EAAAAAB, 4)
        assert O.exact_op("div", FP32, "rtz", one, three) == (0x3EAAAAAA, 4)

    def test_sqrt_two(self):
        assert O.exact_op("sqrt", FP32, "rne", f32(2.0)) == (0x3FB504F3, 4)
        assert O.exact_op("sqrt", FP64, "rne", f64(2.0)) == (f64(2.0 ** 0.5), 4)

    def test_sqrt_exact_square(self):
        assert O.exact_op("sqrt", FP32, "rne", f32(2.25)) == (f32(1.5), 0)

    def test_fp64_point_one_plus_point_two(self):
        assert O.exact_op("add", FP64, "rne", f64(0.1), f64(0.2)) == (
            0x3FD3333333333334, 4)

    def test_cancellation_is_exact(self):
        a, b = f32(1.0000001), f32(1.0)
        word, flags = O.exact_op("sub", FP32, "rne", a, b)
        assert flags == 0
        assert word == f32(1.0000001 - 1.0) or O.decode(FP32, word) == (
            O.decode(FP32, a) - O.decode(FP32, b))

    def test_wide_gap_sum_is_inexact(self):
        # 1 + 2**-30 in fp32: the small operand only reaches sticky.
        assert O.exact_op("add", FP32, "rne", ONE32, f32(2.0 ** -30)) == (ONE32, 4)
        assert O.exact_op("add", FP32, "rtz", ONE32, f32(2.0 ** -30)) == (ONE32, 4)

    def test_fma_rounds_once(self):
        # a*a - fl(a*a) is the rounding error of the square, exactly.
        a = f64(1.0 + 2.0 ** -30)
        sq = f64((1.0 + 2.0 ** -30) ** 2)
        word, flags = O.exact_op("fma", FP64, "rne", a, a, sq | 1 << 63)
        assert flags == 0
        assert O.decode(FP64, word) == Fraction(1, 1 << 60)

    def test_bf16_tie(self):
        one = 0x3F80
        # 1 + 2**-8 is halfway between 1 and 1 + 2**-7: even is 1.
        assert O.round_value(BF16, 1 + Fraction(1, 256), "rne") == (one, True)

    def test_fp16_and_fp48_layouts(self):
        assert O.exact_op("mul", FP16, "rne", 0x3C00, 0x4000) == (0x4000, 0)
        one48 = O.FORMATS["fp48"].bias << 36
        assert O.decode(FP48, one48) == 1

    def test_range_is_refused(self):
        big = (FP16.emax + FP16.bias) << 10
        with pytest.raises(O.OracleRangeError):
            O.exact_op("mul", FP16, "rne", big, big)
        with pytest.raises(O.OracleRangeError):
            O.exact_op("sub", FP32, "rne", ONE32, ONE32)


@pytest.mark.parametrize("fmt_name", ["fp16", "fp32", "fp64"])
@pytest.mark.parametrize("op", O.FAST_OPS)
def test_fast_path_matches_exact_path(fmt_name, op):
    fmt = O.FORMATS[fmt_name]
    ops = O.operands(op, fmt, 3000, np.random.default_rng(11))
    bits, flags = O.fast_expected(op, fmt_name, *ops)
    for i in range(0, 3000, 7):
        assert O.exact_op(op, fmt, "rne", *(int(x[i]) for x in ops)) == (
            int(bits[i]), int(flags[i]))


@pytest.mark.parametrize("fmt_name", sorted(O.FORMATS))
@pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "sqrt", "fma"])
def test_generated_operands_stay_in_range(fmt_name, op):
    fmt = O.FORMATS[fmt_name]
    ops = O.operands(op, fmt, 4000, np.random.default_rng(5))
    for i in range(0, 4000, 3):
        O.exact_op(op, fmt, "rtz", *(int(x[i]) for x in ops))  # no raise


def test_operands_depend_only_on_seed():
    fmt = O.FORMATS["fp32"]
    one = O.operands("fma", fmt, 500, np.random.default_rng(3))
    two = O.operands("fma", fmt, 500, np.random.default_rng(3))
    assert all(np.array_equal(x, y) for x, y in zip(one, two))
