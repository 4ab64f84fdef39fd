import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from couplingkit import Alphabet, DistributionError, ParseError, Pmf, Pmf2
from couplingkit.distributions import check_mass_ratios, fraction_ratios, joint_scaled, lcm_of, scaled
from couplingkit.jsonio import parse_distribution
from couplingkit.rational import parse_rational

F = Fraction


class TestAlphabet:
    def test_order_preserved(self):
        a = Alphabet(["b", "a", "c"])
        assert a.symbols == ("b", "a", "c")
        assert a.index("a") == 1

    def test_unknown_symbol_raises_key_error(self):
        a = Alphabet(["b", "a"])
        with pytest.raises(KeyError, match="symbol 'z' not in alphabet"):
            a.index("z")
        with pytest.raises(KeyError):
            a.index(["a"])  # type: ignore[arg-type]

    def test_index_table_leaves_equality_alone(self):
        a, b = Alphabet(["x", "y"]), Alphabet(["x", "y"])
        assert a == b and hash(a) == hash(b)
        assert a != Alphabet(["y", "x"])
        assert repr(a) == "Alphabet(symbols=('x', 'y'))"

    def test_empty_rejected(self):
        with pytest.raises(DistributionError):
            Alphabet([])

    def test_duplicates_rejected(self):
        with pytest.raises(DistributionError):
            Alphabet(["x", "x"])

    def test_of_size(self):
        assert Alphabet.of_size(3).symbols == ("1", "2", "3")

    def test_product_labels_row_major(self):
        prod = Alphabet(["1", "2"]).product()
        assert prod.symbols == ("(1,1)", "(1,2)", "(2,1)", "(2,2)")

    def test_colliding_pair_labels_rejected(self):
        with pytest.raises(DistributionError):
            Alphabet(["1", "1,1"]).product()


class TestPmf:
    def test_valid(self, alpha4):
        pmf = Pmf(alpha4, (F(1, 10), F(1, 5), F(3, 10), F(2, 5)))
        assert pmf["3"] == F(3, 10)

    def test_sum_violation(self):
        with pytest.raises(DistributionError, match="sum"):
            Pmf(Alphabet(["1", "2"]), (F(1, 2), F(1, 3)))

    def test_negative_entry(self):
        # A negative entry before a non-Fraction one is reported as negative.
        for probs in ((F(3, 2), F(-1, 2)), (F(3, 2), F(-1, 2), 0.0)):
            with pytest.raises(DistributionError, match="negative"):
                Pmf(Alphabet.of_size(len(probs)), probs)

    def test_length_mismatch(self):
        with pytest.raises(DistributionError, match="expected 2"):
            Pmf(Alphabet(["1", "2"]), (F(1),))

    def test_zero_entries_allowed(self):
        pmf = Pmf(Alphabet(["1", "2"]), (F(1), F(0)))
        assert pmf.support() == ("1",)

    def test_uniform(self, alpha4):
        assert Pmf.uniform(alpha4).p == (F(1, 4),) * 4

    def test_uniform_degenerate(self):
        assert Pmf.uniform(Alphabet(["only"])).p == (F(1),)

    def test_uniform_three(self):
        assert Pmf.uniform(Alphabet.of_size(3)).p == (F(1, 3),) * 3

    def test_point_mass(self, alpha4):
        pm = Pmf.point_mass(alpha4, "2")
        assert pm.p == (F(0), F(1), F(0), F(0))

    def test_mass_counts_each_symbol_once(self, alpha4, ramp):
        assert ramp.mass(["3", "4", "4"]) == F(7, 10)

    def test_floats_rejected(self):
        # A non-Fraction entry before a negative one is reported as not a Fraction.
        for probs in ((0.5, 0.5), (F(3, 2), 0.0, F(-1, 2))):
            with pytest.raises(DistributionError, match="Fraction"):
                Pmf(Alphabet.of_size(len(probs)), probs)  # type: ignore[arg-type]

    @given(
        st.lists(
            st.fractions(min_value=F(-1), max_value=F(2), max_denominator=60),
            min_size=1,
            max_size=6,
        )
    )
    def test_construction_accepts_exactly_the_valid_vectors(self, probs):
        alphabet = Alphabet.of_size(len(probs))
        if sum(probs) == 1 and all(p >= 0 for p in probs):
            assert Pmf(alphabet, tuple(probs)).p == tuple(probs)
        else:
            with pytest.raises(DistributionError):
                Pmf(alphabet, tuple(probs))


class TestPmf2:
    def test_valid(self, band3):
        assert band3[("1", "2")] == F(2, 9)

    def test_shape_violation(self, alpha3):
        with pytest.raises(DistributionError, match="3x3"):
            Pmf2(alpha3, ((F(1),),))

    def test_sum_violation(self, alpha3):
        rows = [[F(1, 9)] * 3 for _ in range(3)]
        rows[0][0] = F(2, 9)
        with pytest.raises(DistributionError, match="sum"):
            Pmf2(alpha3, rows)

    def test_diagonal(self, diag3):
        assert diag3.is_diagonal()
        assert diag3[("2", "2")] == F(1, 3)

    def test_marginals(self, band3):
        assert band3.row_marginal().p == (F(1, 3), F(1, 3), F(1, 3))
        assert band3.column_marginal().p == (F(2, 9), F(4, 9), F(1, 3))


class TestCheckMass:
    """The one check of "non-negative entries with an exact total of 1", through ``Pmf`` and on pairs."""

    @staticmethod
    def failure(entries):
        """The constraint and message of the first failure, on the Fractions read by ``fraction_ratios``."""

        def error(message, constraint):
            return ValueError(constraint, message)

        label = lambda k: f"cell {k}"
        with pytest.raises(ValueError) as info:
            (pairs,) = fraction_ratios((entries,), label, error)
            check_mass_ratios(((range(len(pairs)), pairs),), len(pairs), label, error)
        return info.value.args

    def test_valid_entries_pass(self):
        assert Pmf(Alphabet.of_size(3), (F(1, 3), F(0), F(2, 3)))._scaled == (3, [1, 0, 2])
        assert check_mass_ratios(((range(3), ((1, 3), (0, 1), (2, 3))),), 3, str, ValueError) == (3, [3], [1, 0, 2])

    def test_first_failing_entry_is_reported_before_the_total(self):
        assert self.failure((F(1, 2), 0.5, F(-1))) == ("shape", "cell 1 must be a Fraction, got float")
        assert self.failure((F(1, 2), F(-1), 0.5)) == ("negative_entry", "cell 1 is negative: -1")
        assert self.failure((F(1, 2), F(1, 3))) == ("total_mass", "probabilities sum to 5/6, expected 1")
        alphabet = Alphabet.of_size(3)
        for entries, message in [
            ((F(1, 2), 0.5, F(-1)), "p(2) must be a Fraction, got float"),
            ((F(1, 2), F(-1), 0.5), "p(2) is negative: -1"),
            ((F(1, 2), F(1, 3), F(0)), "probabilities sum to 5/6, expected 1"),
        ]:
            with pytest.raises(DistributionError) as info:
                Pmf(alphabet, entries)
            assert str(info.value) == message

    def test_labels_are_built_only_on_failure(self):
        def label(k):
            raise AssertionError("label asked for on a valid vector")

        check_mass_ratios(((range(2), ((1, 2), (1, 2))),), 2, label, ValueError)
        fraction_ratios(((F(1, 2), F(1, 2)),), label, ValueError)


def test_lcm_of_is_the_lcm_of_its_denominators():
    rng = random.Random(3)
    assert lcm_of([]) == 1
    for size in (1, 2, 3, 5, 8, 33):
        # random 64-bit ints, with 3 and 6 sharing a factor
        denominators = {rng.randint(1, 2**64) for _ in range(size)} | {3, 6}
        assert lcm_of(denominators) == math.lcm(*denominators)
        assert lcm_of(iter(denominators)) == math.lcm(*denominators)


class TestFlatten:
    def test_diagonal_flatten(self, diag3):
        flat = diag3.flatten()
        assert flat.alphabet.symbols[:3] == ("(1,1)", "(1,2)", "(1,3)")
        assert flat.p == (
            F(1, 3), F(0), F(0),
            F(0), F(1, 3), F(0),
            F(0), F(0), F(1, 3),
        )

    def test_band_flatten(self, band3):
        assert band3.flatten().p == (
            F(1, 9), F(2, 9), F(0),
            F(1, 9), F(1, 9), F(1, 9),
            F(0), F(1, 9), F(2, 9),
        )

    def test_single_cell(self):
        one = Pmf2(Alphabet(["a"]), ((F(1),),))
        assert one.flatten().p == (F(1),)

    def test_flat_form_is_built_once_and_kept(self, band3):
        assert band3.flatten() is band3.flatten()
        assert band3.flatten().alphabet == band3.alphabet.product()

    def test_flat_form_leaves_equality_alone(self, alpha3, band3):
        twin = Pmf2(alpha3, band3.p)
        assert twin == band3 and hash(twin) == hash(band3)
        assert repr(twin) == f"Pmf2(alphabet={alpha3!r}, p={band3.p!r})"

    def test_colliding_pair_labels_rejected_at_construction(self):
        # "1" + "1,1" and "1,1" + "1" both label as "(1,1,1)"
        with pytest.raises(DistributionError, match="collide"):
            Pmf2(Alphabet(["1", "1,1"]), ((F(1), F(0)), (F(0), F(0))))

    def test_entry_errors_name_the_pair(self, alpha3):
        rows = [[F(1, 9)] * 3 for _ in range(3)]
        rows[1][2] = F(-1, 9)
        with pytest.raises(DistributionError, match=r"\(2,3\)\) is negative: -1/9"):
            Pmf2(alpha3, rows)

    @given(st.integers(min_value=1, max_value=5), st.data())
    def test_flatten_preserves_entries_bijectively(self, n, data):
        weights = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=9),
                min_size=n * n,
                max_size=n * n,
            ).filter(lambda ws: sum(ws) > 0)
        )
        total = sum(weights)
        rows = tuple(
            tuple(F(w, total) for w in weights[i * n : (i + 1) * n]) for i in range(n)
        )
        p2 = Pmf2(Alphabet.of_size(n), rows)
        flat = p2.flatten()
        assert sum(flat.p) == 1
        # row-major bijection between matrix cells and flat entries
        for i in range(n):
            for j in range(n):
                assert flat.p[i * n + j] == rows[i][j]


PRIMES = (3, 5, 7, 11, 13, 17, 19)


@st.composite
def scaled_pmf_pairs(draw):
    """Two distributions on one alphabet: from integer weights, equal, or over distinct primes.

    Weights may be zero, and the two sides' totals share a factor or not;
    ``"primes"`` gives P(a) = 1/p_a but the last, so its denominators are
    pairwise coprime, with Q from weights.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    alphabet = Alphabet.of_size(n)

    def weighted() -> Pmf:
        weights = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n).filter(any))
        return Pmf(alphabet, [F(w, sum(weights)) for w in weights])

    kind = draw(st.sampled_from(["weights", "equal", "primes"]))
    q = weighted()
    if kind == "equal":
        return Pmf(alphabet, q.p), q
    if kind == "primes":
        head = [F(1, d) for d in PRIMES[: n - 1]]
        return Pmf(alphabet, [*head, 1 - sum(head, F(0))]), q
    return weighted(), q


def kept(pmf: Pmf) -> tuple[int, list[int]]:
    """The (D, ints) validation stored on ``pmf``."""
    return vars(pmf)["_scaled"]


class TestKeptInts:
    """A validated Pmf keeps its D and ints; every consumer reads them instead of scaling again."""

    @given(scaled_pmf_pairs())
    def test_validation_keeps_what_scaled_gives(self, pair):
        for pmf in pair:
            assert kept(pmf) == scaled(pmf.p)

    @given(scaled_pmf_pairs())
    def test_joint_scaled_is_scaled_of_both(self, pair):
        p, q = pair
        assert joint_scaled(p, q) == scaled(p.p + q.p)
        scale, _ = scaled(p.p + q.p)
        assert joint_scaled(p, q, 6 * scale) == (6 * scale, [6 * x for x in scaled(p.p + q.p)[1]])

    @given(scaled_pmf_pairs(), st.sampled_from(["{}/{}", "0{}/0{}", " {}/{} "]))
    def test_a_parsed_pmf_keeps_what_scaled_gives(self, pair, form):
        # written unreduced, and through both parse paths
        p, _ = pair
        texts = [form.format(2 * x.numerator, 2 * x.denominator) for x in p.p]
        parsed = parse_distribution({"alphabet": list(p.alphabet), "p": texts})
        assert parsed == p and kept(parsed) == scaled(p.p)

    def test_the_flat_form_of_a_parsed_pmf2_keeps_what_scaled_gives(self, band3):
        texts = [[str(x) for x in row] for row in band3.p]
        parsed = parse_distribution({"alphabet": list(band3.alphabet), "matrix": texts})
        assert parsed == band3 and kept(parsed.flatten()) == scaled(band3.flatten().p) == (9, [1, 2, 0, 1, 1, 1, 0, 1, 2])

    def test_kept_ints_leave_equality_alone(self, alpha3):
        p = Pmf(alpha3, (F(1, 2), F(0), F(1, 2)))
        twin = Pmf(alpha3, ["1/2", "0", "1/2"], {"0": F(0), "1/2": F(1, 2)})
        assert twin == p and hash(twin) == hash(p) and type(twin.p) is tuple
        assert repr(twin) == f"Pmf(alphabet={alpha3!r}, p={p.p!r})"
        assert kept(twin) == kept(p) == (2, [1, 0, 1])

    def test_a_literal_built_pmf_is_validated_per_literal(self, alpha3):
        literals = {"1": F(1), "-1/2": F(-1, 2), "1/2": F(1, 2)}
        with pytest.raises(DistributionError, match=r"^p\(2\) is negative: -1/2$"):
            Pmf(alpha3, ["1", "-1/2", "1/2"], literals)
        # the negative text repeats and first appears after a positive one
        with pytest.raises(DistributionError, match=r"^p\(\(1,2\)\) is negative: -1/2$"):
            Pmf2(Alphabet(["1", "2"]), [["1/2", "-1/2"], ["1", "-1/2"]], literals)
        with pytest.raises(DistributionError, match="^probabilities sum to 3/2, expected 1$"):
            Pmf2(Alphabet(["a"]), [["3/2"]], {"3/2": F(3, 2)})
        # the total counts every cell, not every distinct text
        with pytest.raises(DistributionError, match="^probabilities sum to 3/2, expected 1$"):
            Pmf(alpha3, ["1/2", "1/2", "1/2"], literals)

    def test_a_literal_built_pmf_reads_a_one_shot_iterator(self, alpha3):
        literals = {"0": F(0), "1/2": F(1, 2)}
        texts = ("1/2", "0", "1/2")
        assert Pmf(alpha3, iter(texts), literals) == Pmf(alpha3, texts, literals)


# Literals with repeats, three spellings of zero, negatives and a total past 1 when mixed.
LITERALS = ("0", "0/7", "-0", "1/2", "2/4", "1/3", "1/6", "1/4", "3/4", "1", "-1/4", "-1/2", "7/3")
NON_STRINGS = (1, None, 0.5, ["1/2"], {"1": "1/2"})


@st.composite
def distribution_files(draw):
    """A one- or two-dim distribution file: an exact total of 1 or any cells, now and then a non-string."""
    dim = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(min_value=1, max_value=5 if dim == 1 else 3))
    size = n if dim == 1 else n * n
    if draw(st.booleans()):
        # weights over their sum, written unreduced by k, each zero as "0", "0/7" or "-0"
        weights = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=size, max_size=size))
        weights[draw(st.integers(min_value=0, max_value=size - 1))] += 1
        k = draw(st.sampled_from((1, 2)))
        cells = [f"{k * w}/{k * sum(weights)}" if w else draw(st.sampled_from(LITERALS[:3])) for w in weights]
    else:
        cells = draw(st.lists(st.sampled_from(LITERALS), min_size=size, max_size=size))
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        cells[draw(st.integers(min_value=0, max_value=size - 1))] = draw(st.sampled_from(NON_STRINGS))
    alphabet = [f"s{i}" for i in range(n)]
    if dim == 1:
        return {"alphabet": alphabet, "p": cells}
    return {"alphabet": alphabet, "matrix": [cells[i : i + n] for i in range(0, size, n)]}


def per_cell(obj: dict) -> "Pmf | Pmf2":
    """The distribution of ``obj`` from one Fraction per cell, each cell parsed and checked on its own."""
    alphabet = Alphabet(obj["alphabet"])
    if "p" in obj:
        return Pmf(alphabet, [parse_rational(text) for text in obj["p"]])
    return Pmf2(alphabet, [[parse_rational(text) for text in row] for row in obj["matrix"]])


def loaded(build) -> tuple:
    """What ``build()`` gives, its entries and kept ints, or the type and message of its error."""
    try:
        dist = build()
    except (ParseError, DistributionError) as exc:
        return type(exc), str(exc)
    return dist, dist.p, kept(dist.flatten() if isinstance(dist, Pmf2) else dist)


class TestPerLiteralLoading:
    """A file's distribution is validated once per distinct literal, as if once per cell."""

    @given(distribution_files())
    @example({"alphabet": ["a", "b", "c", "d"], "p": ["1/2", "-1/4", "3/4", "-1/4"]})
    @example({"alphabet": ["1", "2"], "matrix": [["1/2", "-1/2"], ["1", "-1/2"]]})
    @example({"alphabet": ["a", "b", "c"], "p": ["1/2", "1/2", "1/2"]})
    @example({"alphabet": ["a", "b"], "p": ["-0", "0/7"]})
    def test_equals_the_per_cell_reference(self, obj):
        assert loaded(lambda: parse_distribution(obj)) == loaded(lambda: per_cell(obj))

    def test_the_first_negative_cell_is_named(self):
        obj = {"alphabet": ["a", "b", "c", "d"], "p": ["1/2", "-1/4", "3/4", "-1/4"]}
        assert loaded(lambda: parse_distribution(obj)) == (DistributionError, "p(b) is negative: -1/4")
        obj = {"alphabet": ["1", "2"], "matrix": [["1/2", "1/4"], ["-1/4", "-1/4"]]}
        assert loaded(lambda: parse_distribution(obj)) == (DistributionError, "p((2,1)) is negative: -1/4")
