import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from couplingkit import ParseError, decimal_string, parse_rational
from couplingkit.rational import MAX_EXPONENT, bounded_str, parse_ratio

from . import fraction_reference as reference

F = Fraction


class TestParse:
    def test_fraction_literal(self):
        assert parse_rational("1/9") == F(1, 9)

    def test_decimal_literal_is_exact(self):
        assert parse_rational("0.03750") == F(3, 80)

    def test_decimal_one_fifth(self):
        assert parse_rational("0.20000") == F(1, 5)

    def test_integer_literal(self):
        assert parse_rational("3") == F(3)

    def test_negative(self):
        assert parse_rational("-7/3") == F(-7, 3)

    def test_unreduced_input_canonicalizes(self):
        r = parse_rational("10/80")
        assert (r.numerator, r.denominator) == (1, 8)

    @pytest.mark.parametrize("bad", ["", "abc", "1/2/3", "1..5", "--3", "0x10"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    @pytest.mark.parametrize(
        "text",
        ["1" * 5000, "1/" + "0" * 5000, "x" * 100],
        ids=["digits", "zero-denominator", "letters"],
    )
    def test_long_literal_quoted_as_prefix_and_length(self, text):
        with pytest.raises(ParseError) as info:
            parse_rational(text)
        message = str(info.value)
        assert f"({len(text)} characters)" in message
        assert len(message) < 100

    @pytest.mark.parametrize(
        "text",
        ["1" * 5000, "-1/" + "7" * 4301, "0." + "5" * 4400, "1" + "_0" * 4400],
        ids=["integer", "denominator", "decimal", "underscores"],
    )
    def test_literal_past_int_digit_limit_is_too_long(self, text):
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("the int-from-str digit limit is switched off")
        with pytest.raises(ParseError) as info:
            parse_rational(text)
        assert str(info.value).endswith(f"is too long (over {limit} digits)")
        assert "malformed" not in str(info.value)

    def test_short_literal_quoted_whole(self):
        with pytest.raises(ParseError, match="malformed rational literal 'abc'$"):
            parse_rational("abc")

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_rational("1/0")

    def test_non_string(self):
        with pytest.raises(ParseError):
            parse_rational(0.5)  # type: ignore[arg-type]


class TestExponentBound:
    """Fraction builds 10**|exponent| before reducing, so the exponent is bounded first."""

    @pytest.mark.parametrize(
        "text",
        ["1e-999999999", "0e-999999999", "1e4301", "-2.5E+4_301", "1e-" + "9" * 5000, "1e-" + "\u0669" * 9],
        ids=["huge-negative", "zero-mantissa", "just-over", "underscored", "5000-digit", "arabic-indic-digits"],
    )
    def test_exponent_over_the_bound_is_rejected(self, text):
        with pytest.raises(ParseError) as info:
            parse_rational(text)
        message = str(info.value)
        assert message.endswith(f"has an exponent over {MAX_EXPONENT} in magnitude")
        assert len(message) < 120

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1e-4300", F(1, 10**4300)),
            ("1e4300", F(10**4300)),
            ("3e-0000000000000000000000005", F(3, 10**5)),
            ("2.5E+1_0", F(25 * 10**9)),
            (" 1e2 ", F(100)),
        ],
    )
    def test_exponent_within_the_bound_is_exact(self, text, expected):
        assert parse_rational(text) == expected

    def test_bound_matches_the_int_from_str_digit_limit(self):
        assert MAX_EXPONENT == 4300


class TestFormat:
    def test_fraction_form(self):
        assert str(F(3, 80)) == "3/80"

    def test_integer_form(self):
        assert str(F(4, 2)) == "2"

    @given(
        st.fractions(
            min_value=F(-10), max_value=F(10), max_denominator=10**6
        )
    )
    def test_round_trip(self, r):
        assert parse_rational(str(r)) == r


class TestDecimalString:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (F(1, 5), "0.20000"),
            (F(3, 80), "0.03750"),
            (F(0), "0.00000"),
            (F(5, 9), "0.55556"),
            (F(23, 27), "0.85185"),
            (F(4, 45), "0.08889"),
            (F(1), "1.00000"),
            (F(-1, 5), "-0.20000"),
        ],
    )
    def test_five_places(self, value, expected):
        assert decimal_string(value, 5) == expected

    def test_other_precision(self):
        assert decimal_string(F(5, 9), 2) == "0.56"
        assert decimal_string(F(7, 2), 0) == "4"  # half away from zero

    def test_one_renders_at_the_precision_bound(self):
        # 10**4300 has 4301 digits, one past the default int-to-str limit,
        # so the integer part is rendered apart from the fractional digits
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert decimal_string(F(1), MAX_EXPONENT) == "1." + "0" * MAX_EXPONENT
            assert decimal_string(F(2, 3), MAX_EXPONENT) == "0." + "6" * (MAX_EXPONENT - 1) + "7"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_negative_places_rejected(self):
        with pytest.raises(ValueError):
            decimal_string(F(1, 2), -1)


ascii_digits = st.text(alphabet="0123456789", min_size=1, max_size=5)
arabic_indic_digits = st.text(alphabet="\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669", min_size=1, max_size=3)
numerals = st.one_of(
    ascii_digits,
    arabic_indic_digits,
    st.sampled_from(["0", "00", "007", "1_000", "1__0", "_1", "1_", "1.5", ".5", "1.", "2.50", ""]),
    st.sampled_from(["1 ", " 1", "1 2", "1\t", "1+2", "1-"]),
)
literal_grammar = st.one_of(
    st.fractions(min_value=0, max_value=3).map(str),
    st.builds("{0}/{1}".format, ascii_digits, ascii_digits),  # unreduced, leading zeros, 1/0
    st.builds(
        "{0}{1}{2}{3}{4}{5}".format,
        st.sampled_from(["", " ", "\t", "\n "]),
        st.sampled_from(["", "+", "-"]),
        numerals,
        st.one_of(st.just(""), numerals.map("/{}".format)),
        st.sampled_from(["", "e3", "E-2", "e+0", "e4301", "e1_0"]),
        st.sampled_from(["", " ", "\n"]),
    ),
    st.sampled_from(["1" * 4300, "1" * 4301, "1/" + "7" * 4301, "3" * 4301 + "/1", "1/" + "0" * 4301]),
    st.one_of(st.none(), st.integers(), st.floats(), st.lists(st.just("1"), max_size=1)),
)


# Near misses of the "digits/digits" shape that int() alone would misread.
NEAR_MISSES = ["1 /2", "1/ 2", "12 ", " 12", "1/2 ", "+1/2", "1/+2", "1/-2", "1 2", "1_0/3", "3/1_0",
               "\u0661/\u0662", "1/2/3", "0/0", "1e2/3", "0x10"]


def assert_parse_ratio_agrees(text, denominators):
    """``parse_ratio`` gives the value of ``parse_rational``, or raises its ParseError message."""
    try:
        expected = parse_rational(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            parse_ratio(text, denominators)
        assert str(info.value) == str(exc)
    else:
        numerator, denominator = parse_ratio(text, denominators)
        assert denominator > 0 and F(numerator, denominator) == expected


@given(literal_grammar)
def test_parse_ratio_agrees_with_parse_rational(text):
    assert_parse_ratio_agrees(text, {})


@pytest.mark.parametrize("text", NEAR_MISSES)
def test_parse_ratio_agrees_on_near_misses(text):
    assert_parse_ratio_agrees(text, {})


# Near misses for a denominator cache: each is "digits/..." or ".../digits" around a bad part.
CACHED_NEAR_MISSES = ["1/0", "1/_2", "_1/2", " 1/2", "1/2 ", "1/\u0662", "\u0661/2", "2/\u0662",
                      "1/" + "7" * 4301, "7" * 4301 + "/2", "0/0", "2/1", "12/2", "2/12"]


@given(st.lists(st.one_of(st.sampled_from(CACHED_NEAR_MISSES + NEAR_MISSES), literal_grammar), max_size=12))
def test_parse_ratio_with_a_shared_denominator_cache_agrees(texts):
    denominators = {}
    for text in texts:
        assert_parse_ratio_agrees(text, denominators)
    assert all(d == int(text) for text, d in denominators.items())


@pytest.mark.parametrize("text", ["2_0/4", "6/1_2", "1_000", "1__0/2"])
def test_underscored_literals_take_the_parse_rational_path(text):
    # int() reads "_" on every Python, Fraction only from 3.11, so such a
    # literal is left to parse_rational: accepted exactly when it accepts
    # it, as its reduced pair, and never put in the denominator cache.
    denominators = {}
    try:
        expected = parse_rational(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            parse_ratio(text, denominators)
        assert str(info.value) == str(exc)
    else:
        assert parse_ratio(text, denominators) == (expected.numerator, expected.denominator)
    assert denominators == {}


def test_each_distinct_denominator_is_read_once():
    denominators = {}
    pairs = [parse_ratio(text, denominators) for text in ["1/2", "2/3", "3/2", "12/2", "2/12"]]
    assert pairs == [(1, 2), (2, 3), (3, 2), (12, 2), (2, 12)]
    assert denominators == {"2": 2, "3": 3, "12": 12}


def assert_parse_rational_matches_the_reference(text):
    """``parse_rational`` gives the Fraction that ``Fraction(text)`` reads, or the reference's ParseError message."""
    try:
        expected = reference.parse_rational(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            parse_rational(text)
        assert str(info.value) == str(exc)
    else:
        value = parse_rational(text)
        assert type(value) is F
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


plain_literals = st.builds(
    "{0}{1}/{2}{3}".format,
    st.sampled_from(["", "0", "000"]),
    st.integers(0, 10**40),
    st.sampled_from(["", "0", "000"]),
    st.integers(0, 10**40),
)


@given(st.one_of(literal_grammar, plain_literals))
def test_parse_rational_matches_the_fraction_reference(text):
    assert_parse_rational_matches_the_reference(text)


@pytest.mark.parametrize(
    "text",
    NEAR_MISSES + CACHED_NEAR_MISSES + [
        "0/7", "00/007", "0", "000", "10/80", "12/1", "1/0", "00/0", "1_000", "-3/6", "+3/6", " 3/6", "3/6 ",
        "\u0663/\u0666", "3/\uff16", "0.5", "1e3", "1.5E-2", "1" * 4300, "1" * 4301, "2/" + "0" * 4301,
    ],
)
def test_parse_rational_matches_the_fraction_reference_on_edge_cases(text):
    assert_parse_rational_matches_the_reference(text)


def test_digit_runs_over_the_current_limit_match_the_fraction_reference():
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("the int-from-str digit limit is switched off")
    for text in ("7" * (limit + 1), "1/" + "3" * (limit + 1), "9" * (limit + 1) + "/2", "5" * limit + "/" + "2" * limit):
        assert_parse_rational_matches_the_reference(text)


def test_bounded_str_gives_the_size_of_a_value_past_the_limit(default_digit_limit):
    assert bounded_str(F(7, 3)) == "7/3" and bounded_str(-5) == "-5"
    assert bounded_str(F(1, 3**10000)) == "<a rational over a 15850-bit denominator>"
    assert bounded_str(-(10**5000)) == "<an integer of 16610 bits>"
    assert bounded_str(F(10**5000)) == "<an integer of 16610 bits>"
