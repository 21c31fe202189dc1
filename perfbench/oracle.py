"""An FP oracle that shares no code with the program.

Exact path: decode each operand word to a :class:`fractions.Fraction`,
compute the exact rational result (``sqrt`` through an integer square
root), and round it once into the target format under ``rne`` (ties to
even) or ``rtz`` (truncation).  Returns the result word and the flag
byte the program reports for a normal non-zero result: the inexact bit
(4) or nothing.

Fast path: for fp16/fp32/fp64 under ``rne``, NumPy IEEE arithmetic in
float64 gives the result (double rounding through float64 is harmless
for +, -, *, / and sqrt when the target has at most 26 significand
bits, and exact for fp64), and error-free transforms (TwoSum, Dekker's
product) give the inexact flag.

Operand generation keeps every exact result normal and well away from
the overflow and underflow thresholds; the oracle refuses any result
closer than one binade to either.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

import numpy as np

INEXACT = 4


class Fmt(NamedTuple):
    name: str
    exp_bits: int
    man_bits: int

    @property
    def width(self) -> int:
        return 1 + self.exp_bits + self.man_bits

    @property
    def bias(self) -> int:
        return (1 << (self.exp_bits - 1)) - 1

    @property
    def emin(self) -> int:
        return 1 - self.bias

    @property
    def emax(self) -> int:
        return (1 << self.exp_bits) - 2 - self.bias


FORMATS = {
    f.name: f
    for f in (
        Fmt("fp16", 5, 10),
        Fmt("bf16", 8, 7),
        Fmt("fp32", 8, 23),
        Fmt("fp48", 11, 36),
        Fmt("fp64", 11, 52),
    )
}


class OracleRangeError(ValueError):
    """An exact result outside the oracle's safe normal range."""


# ---------------------------------------------------------------------- #
# exact path
# ---------------------------------------------------------------------- #
def decode(fmt: Fmt, word: int) -> Fraction:
    """The exact value of a normal (or zero) word."""
    sign = word >> (fmt.width - 1) & 1
    exp = word >> fmt.man_bits & ((1 << fmt.exp_bits) - 1)
    man = word & ((1 << fmt.man_bits) - 1)
    if exp == 0:
        return Fraction(0)
    if exp == (1 << fmt.exp_bits) - 1:
        raise OracleRangeError(f"{fmt.name} word {word:#x} is Inf/NaN")
    sig = (1 << fmt.man_bits) | man
    shift = exp - fmt.bias - fmt.man_bits
    value = Fraction(sig << shift) if shift >= 0 else Fraction(sig, 1 << -shift)
    return -value if sign else value


def floor_log2(x: Fraction) -> int:
    """Largest ``e`` with ``2**e <= x`` (``x > 0``)."""
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    if (n << max(0, -e)) < (d << max(0, e)):
        e -= 1
    return e


def _pack(fmt: Fmt, sign: int, e: int, q: int) -> int:
    if not fmt.emin + 1 <= e <= fmt.emax - 1:
        raise OracleRangeError(
            f"{fmt.name} result exponent {e} within a binade of the "
            f"normal range [{fmt.emin}, {fmt.emax}]"
        )
    return (
        sign << (fmt.width - 1)
        | (e + fmt.bias) << fmt.man_bits
        | (q - (1 << fmt.man_bits))
    )


def round_value(fmt: Fmt, x: Fraction, mode: str) -> tuple:
    """Round a non-zero exact value once: ``(word, inexact)``."""
    if x == 0:
        raise OracleRangeError("exact zero result")
    sign = 1 if x < 0 else 0
    x = abs(x)
    e = floor_log2(x)
    m = fmt.man_bits
    scaled = x * (Fraction(1 << (m - e)) if m >= e else Fraction(1, 1 << (e - m)))
    q = scaled.numerator // scaled.denominator
    rest = scaled - q
    if mode == "rne" and (rest > Fraction(1, 2) or (rest == Fraction(1, 2) and q & 1)):
        q += 1
        if q == 1 << (m + 1):
            q >>= 1
            e += 1
    elif mode not in ("rne", "rtz"):
        raise ValueError(f"unknown mode {mode!r}")
    return _pack(fmt, sign, e, q), rest != 0


def round_sqrt(fmt: Fmt, x: Fraction, mode: str) -> tuple:
    """Round ``sqrt(x)`` once, for ``x > 0``: ``(word, inexact)``."""
    if x <= 0:
        raise OracleRangeError("sqrt of a non-positive value")
    m = fmt.man_bits
    e = floor_log2(x) // 2
    # scaled = sqrt(x) * 2**(m - e); its square X = x * 4**(m - e).
    k = 2 * (m - e)
    big = x * (Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k))
    q = isqrt(big.numerator // big.denominator)
    exact = big == q * q
    if mode == "rne" and big > Fraction((2 * q + 1) ** 2, 4):
        q += 1
        if q == 1 << (m + 1):
            q >>= 1
            e += 1
    elif mode not in ("rne", "rtz"):
        raise ValueError(f"unknown mode {mode!r}")
    return _pack(fmt, 0, e, q), not exact


def exact_op(op: str, fmt: Fmt, mode: str, *words: int) -> tuple:
    """``(word, flags)`` of one operation, computed exactly."""
    v = [decode(fmt, w) for w in words]
    if op == "sqrt":
        word, inexact = round_sqrt(fmt, v[0], mode)
    else:
        if op == "add":
            x = v[0] + v[1]
        elif op == "sub":
            x = v[0] - v[1]
        elif op == "mul":
            x = v[0] * v[1]
        elif op == "div":
            x = v[0] / v[1]
        elif op == "fma":
            x = v[0] * v[1] + v[2]
        else:
            raise ValueError(f"unknown op {op!r}")
        word, inexact = round_value(fmt, x, mode)
    return word, INEXACT if inexact else 0


# ---------------------------------------------------------------------- #
# NumPy fast path (fp16/fp32/fp64, rne; not fma)
# ---------------------------------------------------------------------- #
_FLOAT = {"fp16": (np.uint16, np.float16), "fp32": (np.uint32, np.float32),
          "fp64": (np.uint64, np.float64)}
FAST_OPS = ("add", "sub", "mul", "div", "sqrt")


def has_fast_path(op: str, fmt_name: str, mode: str) -> bool:
    return mode == "rne" and fmt_name in _FLOAT and op in FAST_OPS


def _split(x):
    c = x * 134217729.0  # 2**27 + 1 (Veltkamp)
    hi = c - (c - x)
    return hi, x - hi


def _two_prod_err(x, y, p):
    """Exact ``x*y - p`` where ``p = fl(x*y)`` (Dekker)."""
    xh, xl = _split(x)
    yh, yl = _split(y)
    return ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def fast_expected(op: str, fmt_name: str, *words: np.ndarray) -> tuple:
    """``(words, flags)`` arrays by IEEE float64 arithmetic."""
    utype, ftype = _FLOAT[fmt_name]
    x = [w.astype(utype).view(ftype).astype(np.float64) for w in words]
    if op in ("add", "sub"):
        a, b = x[0], (x[1] if op == "add" else -x[1])
        r = a + b
        bb = r - a
        err = (a - (r - bb)) + (b - bb)
    elif op == "mul":
        r = x[0] * x[1]
        err = _two_prod_err(x[0], x[1], r)
    elif op == "div":
        r = x[0] / x[1]
        # remainder a - r*b, exact: a - p is exact (Sterbenz), e exact
        p = r * x[1]
        err = (x[0] - p) - _two_prod_err(r, x[1], p)
    elif op == "sqrt":
        r = np.sqrt(x[0])
        p = r * r
        err = (x[0] - p) - _two_prod_err(r, r, p)
    else:
        raise ValueError(f"no fast path for {op!r}")
    out = r.astype(ftype)
    inexact = (err != 0) | (out.astype(np.float64) != r)
    bits = out.view(utype).astype(np.uint64)
    return bits, np.where(inexact, INEXACT, 0).astype(np.uint8)


# ---------------------------------------------------------------------- #
# operand generation
# ---------------------------------------------------------------------- #
def _exp_window(fmt: Fmt) -> tuple:
    """Unbiased exponent window of ordinary operands.  fp16 has only 30
    normal binades, so its window is narrow enough that products,
    quotients, cancellations and wide-gap sums all stay normal."""
    return (-2, 3) if fmt.name == "fp16" else (-8, 8)


def _words(fmt: Fmt, rng, sign, exp, n: int) -> np.ndarray:
    man = rng.integers(0, 1 << fmt.man_bits, n, dtype=np.uint64)
    return (
        sign.astype(np.uint64) << np.uint64(fmt.width - 1)
        | (exp + fmt.bias).astype(np.uint64) << np.uint64(fmt.man_bits)
        | man
    )


def _field_exp(fmt: Fmt, w: np.ndarray) -> np.ndarray:
    return (w >> np.uint64(fmt.man_bits) & np.uint64((1 << fmt.exp_bits) - 1)
            ).astype(np.int64) - fmt.bias


def operands(op: str, fmt: Fmt, n: int, rng) -> tuple:
    """Seeded operand arrays (uint64 words) for ``n`` elements of ``op``.

    add/sub: 60% ordinary pairs, 20% near-cancellation (the second
    operand at most 256 ulps from the first, opposite in effect), 20%
    wide exponent gaps (the smaller operand 1 to man_bits+5 binades
    below).  fma: 60% ordinary, 40% with the addend within 64 ulps of
    minus the rounded product.  sqrt: positive operands.  Exact zero
    results are excluded by construction.
    """
    lo, hi = _exp_window(fmt)
    m = fmt.man_bits
    sign = rng.integers(0, 2, (3, n), dtype=np.uint64)
    exp = rng.integers(lo, hi + 1, (3, n), dtype=np.int64)
    a = _words(fmt, rng, sign[0], exp[0], n)
    if op == "sqrt":
        return (a & ~np.uint64(1 << (fmt.width - 1)),)
    b = _words(fmt, rng, sign[1], exp[1], n)
    cls = rng.random(n)
    if op in ("add", "sub"):
        # near-cancellation: |b| = |a| + k ulps, 1 <= k <= min(256,
        # 2**(m-1)); b's sign makes the operation subtract magnitudes
        cancel = cls < 0.2
        k = rng.integers(1, min(256, 1 << (m - 1)) + 1, n, dtype=np.uint64)
        a_mag = a & ~np.uint64(1 << (fmt.width - 1))
        a_exp = _field_exp(fmt, a)
        ok = a_exp - m >= fmt.emin + 2  # difference stays normal
        mag = a_mag + k
        a_sign = a >> np.uint64(fmt.width - 1)
        want = a_sign ^ np.uint64(1 if op == "add" else 0)
        near = want << np.uint64(fmt.width - 1) | mag
        b = np.where(cancel & ok, near, b)
        # wide exponent gap: b's exponent 1..m+5 below a's
        gap = (cls >= 0.2) & (cls < 0.4)
        g = rng.integers(1, m + 6, n, dtype=np.int64)
        b_exp = a_exp - g
        ok = b_exp >= fmt.emin + 2
        gapped = (b & ~(np.uint64((1 << fmt.exp_bits) - 1) << np.uint64(m))) | (
            (np.maximum(b_exp, fmt.emin + 2) + fmt.bias).astype(np.uint64)
            << np.uint64(m)
        )
        b = np.where(gap & ok, gapped, b)
        # never an exact zero: equal magnitudes that cancel get nudged
        same = (a & ~np.uint64(1 << (fmt.width - 1))) == (
            b & ~np.uint64(1 << (fmt.width - 1)))
        cancels = (a >> np.uint64(fmt.width - 1)) != (b >> np.uint64(fmt.width - 1))
        if op == "sub":
            cancels = ~cancels
        b = np.where(same & cancels, b ^ np.uint64(1), b)
        return a, b
    if op != "fma":
        return a, b
    c = _words(fmt, rng, sign[2], exp[2], n)
    cancel = cls < 0.4
    if fmt.name == "fp16":
        # keep |a*b| >= 1 there, so a residue of one ulp is still normal
        keep = ~np.uint64(((1 << fmt.exp_bits) - 1) << m)
        for i in (0, 1):
            e_ab = rng.integers(0, 2, n, dtype=np.int64) + fmt.bias
            w = (a, b)[i]
            w = np.where(cancel, (w & keep) | (e_ab.astype(np.uint64) << np.uint64(m)), w)
            a, b = (w, b) if i == 0 else (a, w)
    ab = to_float64(fmt, a) * to_float64(fmt, b)
    # addend: minus the truncated product, k ulps smaller in magnitude,
    # so the exact sum is at least k ulps of the product and never zero
    k = rng.integers(1, 65, n, dtype=np.uint64)
    c = np.where(cancel, from_float64_trunc(fmt, -ab) - k, c)
    # ordinary triples whose sum cancels by chance below the safe range
    # get the addend's sign flipped
    tiny = ~cancel & (np.abs(ab + to_float64(fmt, c)) < 2.0 ** (fmt.emin + 8))
    return a, b, np.where(tiny, c ^ np.uint64(1 << (fmt.width - 1)), c)


def to_float64(fmt: Fmt, w: np.ndarray) -> np.ndarray:
    """Exact float64 values of normal words (man_bits <= 52)."""
    m = fmt.man_bits
    sig = (w & np.uint64((1 << m) - 1) | np.uint64(1 << m)).astype(np.float64)
    mag = np.ldexp(sig, _field_exp(fmt, w) - m)
    return np.where(w >> np.uint64(fmt.width - 1) != 0, -mag, mag)


def from_float64_trunc(fmt: Fmt, x: np.ndarray) -> np.ndarray:
    """Words of non-zero float64 values, truncated to the format."""
    m = fmt.man_bits
    frac, e2 = np.frexp(np.abs(x))  # |x| = frac * 2**e2, frac in [0.5, 1)
    sig = np.floor(np.ldexp(frac, m + 1)).astype(np.uint64)
    return (
        (x < 0).astype(np.uint64) << np.uint64(fmt.width - 1)
        | (e2 - 1 + fmt.bias).astype(np.uint64) << np.uint64(m)
        | (sig - np.uint64(1 << m))
    )
