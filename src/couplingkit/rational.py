"""Exact rational scalars.

Probabilities throughout the package are :class:`fractions.Fraction`
values: arbitrary-precision, always canonical (positive denominator,
reduced), with exact arithmetic and comparison.  This module adds the
text conventions used by the file formats and the CLI:

* parsing accepts ``"p/q"``, finite decimal strings (``"0.03750"``),
  and plain integers, all converted exactly, either to a Fraction
  (:func:`parse_rational`) or to a (numerator, denominator) pair of ints
  (:func:`parse_ratio`, which skips the reduction).  A plain literal,
  ASCII ``"digits"`` or ``"digits/digits"``, is read by ``int`` (and
  for a Fraction one ``gcd``); every other goes through ``Fraction``;
* rendering is either the canonical fraction form (``str(Fraction)``,
  which round-trips) or a fixed-width decimal used only for display.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

from .errors import ParseError

_QUOTE_PREFIX = 24

# Largest decimal exponent magnitude accepted, as in "1e-4300".  Fraction
# builds 10**|exponent| before reducing, so an unbounded exponent can hang
# the parser; 4300 matches Python's default int-from-str digit limit.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def _quote(text: str) -> str:
    """The literal for an error message: whole when short, else a prefix and its length."""
    if len(text) <= _QUOTE_PREFIX:
        return repr(text)
    return f"{text[:_QUOTE_PREFIX]!r}... ({len(text)} characters)"


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, a finite decimal, or an integer into an exact Fraction.

    A plain literal (:func:`_plain_ratio`) is read by ``int`` and reduced
    by one ``gcd``; every other goes through ``Fraction(text)``, so the
    accepted language and every error are Fraction's.  Decimal strings
    convert via power-of-ten denominators, never through
    binary floating point, so ``"0.03750"`` is exactly ``3/80``.  A run of
    digits longer than Python's int-from-str limit
    (``sys.get_int_max_str_digits()``) is reported as too long, and a
    decimal exponent over :data:`MAX_EXPONENT` in magnitude is rejected
    before any power of ten is built.
    """
    if pair := _plain_ratio(text, {}):
        g = gcd(*pair)
        return _reduced(pair[0] // g, pair[1] // g)
    if not isinstance(text, str):
        raise ParseError(f"rational literal must be a string, got {type(text).__name__}")
    exponent = ("e" in text or "E" in text) and _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise ParseError(
                f"rational literal {_quote(text)} has an exponent over {MAX_EXPONENT} in magnitude"
            )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in rational literal {_quote(text)}") from None
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if limit and any(
            len(run) - run.count("_") > limit for run in re.findall(r"[0-9_]+", text)
        ):
            raise ParseError(
                f"rational literal {_quote(text)} is too long (over {limit} digits)"
            ) from None
        raise ParseError(f"malformed rational literal {_quote(text)}") from None


def parse_ratio(text: str, denominators: dict[str, int]) -> tuple[int, int]:
    """:func:`parse_rational` as a (numerator, denominator) pair of ints, not reduced.

    A plain literal is read by :func:`_plain_ratio`, with no gcd, and
    ``denominators``, a dict kept across calls (one per file), caches its
    denominator; every other literal goes through :func:`parse_rational`,
    so the accepted language and every error are the same.
    """
    if pair := _plain_ratio(text, denominators):
        return pair
    value = parse_rational(text)
    return value.numerator, value.denominator


def _plain_ratio(text: str, denominators: dict[str, int]) -> tuple[int, int] | None:
    """An ASCII ``"digits/digits"`` with a non-zero denominator, or ASCII ``"digits"``, as its pair of ints; else None.

    The ints are read by ``int`` alone.  ``denominators`` maps each
    denominator string read so far to its int, so ``int`` reads each
    distinct one once.
    """
    if isinstance(text, str) and text.isascii() and "_" not in text:
        head, slash, tail = text.partition("/")
        # Of the ASCII strings without "_" that start and end with a digit,
        # int() reads exactly those made of digits alone.  ("_" is kept
        # out because Fraction rejects it before Python 3.11, and int()
        # does not.)
        if head[:1].isdigit() and head[-1:].isdigit() and (
            not slash or tail[:1].isdigit() and tail[-1:].isdigit()
        ):
            try:
                numerator = int(head)
                if not slash:
                    return numerator, 1
                denominator = denominators.get(tail)
                if denominator is None:
                    denominator = denominators[tail] = int(tail)
            except ValueError:  # a non-digit inside, or a run over the digit limit
                return None
            if denominator:
                return numerator, denominator
    return None


# _reduced(n, d) is n / d with no gcd, for ints the caller has proven
# coprime with d > 0.  Before Python 3.12 it sets Fraction's two slots as
# 3.12's Fraction._from_coprime_ints does: the constructor, even with
# _normalize=False, runs type checks that cost three times as much.
if sys.version_info >= (3, 12):
    _reduced = Fraction._from_coprime_ints
else:

    def _reduced(numerator: int, denominator: int) -> Fraction:
        value = object.__new__(Fraction)
        value._numerator, value._denominator = numerator, denominator
        return value


def bounded_str(value: Fraction | int) -> str:
    """``str(value)`` for an error message, or its size when that fails.

    A numerator or denominator over Python's int-to-str digit limit makes
    ``str`` raise ``ValueError``, which would replace the message being
    built; such a value is described by its denominator's bit length, or
    an integer by its own.
    """
    try:
        return str(value)
    except ValueError:
        if value.denominator == 1:
            return f"<an integer of {abs(value.numerator).bit_length()} bits>"
        return f"<a rational over a {value.denominator.bit_length()}-bit denominator>"


def decimal_string(value: Fraction, places: int = 5) -> str:
    """Fixed-point decimal rendering, e.g. ``1/5 -> "0.20000"``.

    Rounds half away from zero using integer arithmetic.  Display only:
    nothing in the package compares or stores these strings as numbers.
    The integer part and the ``places`` fractional digits are rendered
    apart, so a value below 1 renders at up to :data:`MAX_EXPONENT`
    places under the default int-to-str digit limit, 1 itself included.
    """
    if places < 0:
        raise ValueError("places must be >= 0")
    sign = "-" if value < 0 else ""
    scaled = abs(value) * 10**places
    whole, rem = divmod(scaled.numerator, scaled.denominator)
    if 2 * rem >= scaled.denominator:
        whole += 1
    if places == 0:
        return f"{sign}{whole}"
    units, fraction = divmod(whole, 10**places)
    return f"{sign}{units}.{str(fraction).rjust(places, '0')}"
