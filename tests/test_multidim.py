import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from couplingkit import (
    Alphabet,
    ConstraintInfeasibleError,
    Coupling,
    Coupling4,
    Pmf,
    Pmf2,
    coupling4_constrained,
    coupling4_independent,
    coupling4_maximal,
    coupling_maximal,
    lp_min_mismatch,
    mismatch_components,
    vdist2,
    vdist_halfsum,
)

from .conftest import pmf2_pairs, random_pmf2

F = Fraction

# Golden four-index couplings of diag3 vs band3, as {(x1,x2,y1,y2): value};
# every cell not listed is zero.  Indices are 0-based alphabet positions.
MAXIMAL4_NONZERO = {
    (0, 0, 0, 0): F(1, 9),
    (0, 0, 0, 1): F(4, 45),
    (0, 0, 1, 0): F(2, 45),
    (0, 0, 1, 2): F(2, 45),
    (0, 0, 2, 1): F(2, 45),
    (1, 1, 0, 1): F(4, 45),
    (1, 1, 1, 0): F(2, 45),
    (1, 1, 1, 1): F(1, 9),
    (1, 1, 1, 2): F(2, 45),
    (1, 1, 2, 1): F(2, 45),
    (2, 2, 0, 1): F(2, 45),
    (2, 2, 1, 0): F(1, 45),
    (2, 2, 1, 2): F(1, 45),
    (2, 2, 2, 1): F(1, 45),
    (2, 2, 2, 2): F(2, 9),
}
CONSTRAINED4_NONZERO = {
    (0, 0, 0, 0): F(1, 9),
    (0, 0, 0, 1): F(2, 9),
    (1, 1, 1, 0): F(1, 9),
    (1, 1, 1, 1): F(1, 9),
    (1, 1, 1, 2): F(1, 9),
    (2, 2, 2, 1): F(1, 9),
    (2, 2, 2, 2): F(2, 9),
}
INDEPENDENT4_NONZERO = {
    (x, x, y1, y2): F(w, 27)
    for x in range(3)
    for (y1, y2), w in {
        (0, 0): 1, (0, 1): 2,
        (1, 0): 1, (1, 1): 1, (1, 2): 1,
        (2, 1): 1, (2, 2): 2,
    }.items()
}


def assert_matches_golden(c4: Coupling4, golden: dict):
    n = len(c4.alphabet)
    for x1 in range(n):
        for x2 in range(n):
            for y1 in range(n):
                for y2 in range(n):
                    expected = golden.get((x1, x2, y1, y2), F(0))
                    assert c4.value(x1, x2, y1, y2) == expected, (x1, x2, y1, y2)


class TestVdist2:
    def test_worked_pair(self, diag3, band3):
        assert vdist2(diag3, band3) == F(5, 9)

    def test_equal(self, band3):
        assert vdist2(band3, band3) == F(0)

    def test_disjoint_supports(self, alpha3):
        p2 = Pmf2.diagonal(Pmf.uniform(alpha3))
        rows = [[F(0)] * 3 for _ in range(3)]
        rows[0][1] = F(1, 2)
        rows[2][0] = F(1, 2)
        q2 = Pmf2(alpha3, rows)
        assert vdist2(p2, q2) == F(1)

    def test_agrees_with_flattened_halfsum(self, diag3, band3):
        assert vdist2(diag3, band3) == vdist_halfsum(diag3.flatten(), band3.flatten())


class TestMaximal4:
    def test_worked_pair_all_81_entries(self, diag3, band3):
        c4 = coupling4_maximal(diag3, band3)
        assert_matches_golden(c4, MAXIMAL4_NONZERO)
        assert c4["1", "1", "1", "2"] == MAXIMAL4_NONZERO[0, 0, 0, 1]
        # Each lookup reads its cell's pair, without building the N^4 Fractions of flat.j.
        assert "j" not in c4.flat.__dict__

    def test_pair_mismatch_equals_vdist2(self, diag3, band3):
        c4 = coupling4_maximal(diag3, band3)
        assert mismatch_components(c4).pair_mismatch == F(5, 9)

    def test_equal_inputs_give_diagonal(self, band3):
        c4 = coupling4_maximal(band3, band3)
        parts = mismatch_components(c4)
        assert parts.pair_mismatch == F(0)
        for x1 in range(3):
            for x2 in range(3):
                assert c4.value(x1, x2, x1, x2) == band3.p[x1][x2]

    def test_reduces_to_flattened_one_dim_construction(self, diag3, band3):
        c4 = coupling4_maximal(diag3, band3)
        flat = coupling_maximal(diag3.flatten(), band3.flatten())
        assert c4.flat.j == flat.j

    def test_random_pairs_match_lp_oracle(self):
        # dual route: construction vs independently solved transport LP
        rng = random.Random(4242)
        for _ in range(25):
            p2 = random_pmf2(rng, 2)
            q2 = random_pmf2(rng, 2)
            c4 = coupling4_maximal(p2, q2)
            _, cert = lp_min_mismatch(p2.flatten(), q2.flatten())
            assert mismatch_components(c4).pair_mismatch == cert.objective
            assert cert.objective == vdist2(p2, q2)


class TestConstrained4:
    def test_worked_pair_matches_golden(self, diag3, band3):
        c4 = coupling4_constrained(diag3, band3)
        assert_matches_golden(c4, CONSTRAINED4_NONZERO)
        assert "j" not in c4.flat.__dict__  # built from pairs, no Fraction per cell

    def test_worked_pair_mismatch_components(self, diag3, band3):
        parts = mismatch_components(coupling4_constrained(diag3, band3))
        assert parts.pair_mismatch == parts.coord_mismatch == F(5, 9)
        assert vdist2(diag3, band3) == parts.pair_mismatch

    def test_equal_diagonal_inputs(self, diag3):
        parts = mismatch_components(coupling4_constrained(diag3, diag3))
        assert parts.pair_mismatch == parts.coord_mismatch == F(0)

    def test_non_diagonal_left_is_infeasible(self, band3):
        with pytest.raises(ConstraintInfeasibleError) as err:
            coupling4_constrained(band3, band3)
        assert err.value.symbol == "1"

    def test_marginal_incompatibility_names_symbol(self, alpha3, band3):
        lop = Pmf2.diagonal(Pmf(alpha3, (F(1, 2), F(1, 4), F(1, 4))))
        with pytest.raises(ConstraintInfeasibleError) as err:
            coupling4_constrained(lop, band3)
        assert err.value.symbol == "1"

    def test_incompatibility_past_the_digit_limit_keeps_its_message(self, alpha3, band3, default_digit_limit):
        # P2(1,1) has a 4401-digit denominator, past the int-to-str limit
        d = 10**4400 + 1
        lop = Pmf2.diagonal(Pmf(alpha3, (F(1, d), F(1, 2), F(1, 2) - F(1, d))))
        bits = d.bit_length()
        with pytest.raises(ConstraintInfeasibleError, match=rf"P2\(1,1\) = <a rational over a {bits}-bit denominator>"):
            coupling4_constrained(lop, band3)

    def test_random_diagonal_pairs_attain_equality(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(1, 4)
            q2 = random_pmf2(rng, n)
            p2 = Pmf2.diagonal(q2.row_marginal())
            c4 = coupling4_constrained(p2, q2)
            parts = mismatch_components(c4)
            assert parts.pair_mismatch == parts.coord_mismatch == vdist2(p2, q2)


class TestIndependent4:
    def test_worked_pair_matches_golden(self, diag3, band3):
        assert_matches_golden(coupling4_independent(diag3, band3), INDEPENDENT4_NONZERO)

    def test_worked_pair_mismatch(self, diag3, band3):
        parts = mismatch_components(coupling4_independent(diag3, band3))
        assert parts.pair_mismatch == F(23, 27)
        assert parts.coord_mismatch == F(2, 3)

    def test_dropping_the_shared_coordinate_breaks_equality(self, diag3, band3):
        # keeping only x1 = x2 (independence keeps it: diag3 is diagonal)
        # no longer pins the pair mismatch or the coordinate mismatch to v
        v = vdist2(diag3, band3)
        parts = mismatch_components(coupling4_independent(diag3, band3))
        assert v == F(5, 9)
        assert v < parts.pair_mismatch == F(23, 27)
        assert parts.coord_mismatch != v


class TestMismatchComponents:
    def test_identity_coupling(self, band3):
        parts = mismatch_components(coupling4_maximal(band3, band3))
        assert parts.pair_mismatch == parts.coord_mismatch == F(0)

    def test_coordinate_mismatch_never_exceeds_pair(self):
        rng = random.Random(1000)
        for _ in range(40):
            n = rng.randint(1, 3)
            p2 = random_pmf2(rng, n)
            q2 = random_pmf2(rng, n)
            for c4 in (coupling4_maximal(p2, q2), coupling4_independent(p2, q2)):
                parts = mismatch_components(c4)
                assert parts.coord_mismatch <= parts.pair_mismatch


class TestCoupling4Construction:
    def test_from_tensor_round_trip(self, diag3, band3):
        c4 = coupling4_maximal(diag3, band3)
        n = 3
        tensor = [
            [
                [[c4.value(x1, x2, y1, y2) for y2 in range(n)] for y1 in range(n)]
                for x2 in range(n)
            ]
            for x1 in range(n)
        ]
        rebuilt = Coupling4.from_tensor(tensor, diag3, band3)
        assert rebuilt.flat.j == c4.flat.j

    def test_flat_coupling_off_the_product_alphabet_rejected(self, diag3, band3):
        # Same entries, relabelled "1".."9": the marginals' alphabets differ.
        flat = coupling4_maximal(diag3, band3).flat
        nine = Alphabet.of_size(9)
        relabelled = Coupling(flat.j, Pmf(nine, flat.left.p), Pmf(nine, flat.right.p))
        with pytest.raises(ConstraintInfeasibleError, match="marginals"):
            Coupling4(relabelled, diag3, band3)

    def test_pair_inequality_on_random_mixes(self, diag3, band3):
        # convex mixes of the maximal and independent four-index couplings
        a = coupling4_maximal(diag3, band3).flat
        b = coupling4_independent(diag3, band3).flat
        v = vdist2(diag3, band3)
        for k in range(0, 11):
            w = F(k, 10)
            rows = tuple(
                tuple(w * x + (1 - w) * y for x, y in zip(ra, rb))
                for ra, rb in zip(a.j, b.j)
            )
            from couplingkit import Coupling

            mixed = Coupling(rows, a.left, a.right)
            c4 = Coupling4(mixed, diag3, band3)
            assert v <= mismatch_components(c4).pair_mismatch

    @settings(max_examples=60, deadline=None)
    @given(pmf2_pairs())
    def test_maximal_equals_vdist2_generally(self, pair):
        p2, q2 = pair
        c4 = coupling4_maximal(p2, q2)
        assert mismatch_components(c4).pair_mismatch == vdist2(p2, q2)
