from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from couplingkit import Alphabet, DistributionError, Pmf, Pmf2
from couplingkit.distributions import check_mass

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
    """The one check of "non-negative Fractions with an exact total of 1"."""

    @staticmethod
    def failure(entries):
        def error(message, constraint):
            return ValueError(constraint, message)

        with pytest.raises(ValueError) as info:
            check_mass(entries, lambda k: f"cell {k}", error)
        return info.value.args

    def test_valid_entries_pass(self):
        assert check_mass((F(1, 3), F(0), F(2, 3)), str, ValueError) == 3

    def test_first_failing_entry_is_reported_before_the_total(self):
        assert self.failure((F(1, 2), 0.5, F(-1))) == ("shape", "cell 1 must be a Fraction, got float")
        assert self.failure((F(1, 2), F(-1), 0.5)) == ("negative_entry", "cell 1 is negative: -1")
        assert self.failure((F(1, 2), F(1, 3))) == ("total_mass", "probabilities sum to 5/6, expected 1")

    def test_labels_are_built_only_on_failure(self):
        def label(k):
            raise AssertionError("label asked for on a valid vector")

        check_mass((F(1, 2), F(1, 2)), label, ValueError)


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
