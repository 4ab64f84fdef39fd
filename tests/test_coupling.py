import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplingkit import (
    AlphabetMismatchError,
    CorruptedCouplingError,
    Coupling,
    Coupling4,
    CouplingError,
    Pmf,
    Pmf2,
    Alphabet,
    coupling4_maximal,
    coupling_independent,
    coupling_maximal,
    lemma_audit,
    maximal_diagonal,
    mismatch_components,
    mismatch_prob,
    residuals,
    vdist_halfsum,
)

import couplingkit.coupling as coupling_module
import couplingkit.distributions as distributions_module
from couplingkit.coupling import check_maximal
from couplingkit.distributions import ZERO

from .conftest import (
    GENERIC_COUPLING,
    convex_combination,
    pmf2_pairs,
    pmf_pairs,
    random_coupling,
    random_pmf,
)

F = Fraction

# Worked-example goldens for ramp = (0.1, 0.2, 0.3, 0.4) against uniform(4).
INDEPENDENT_MATRIX = tuple(
    tuple(x * F(1, 4) for _ in range(4)) for x in (F(1, 10), F(1, 5), F(3, 10), F(2, 5))
)
MAXIMAL_MATRIX = (
    (F(1, 10), F(0), F(0), F(0)),
    (F(0), F(1, 5), F(0), F(0)),
    (F(3, 80), F(1, 80), F(1, 4), F(0)),
    (F(9, 80), F(3, 80), F(0), F(1, 4)),
)


class TestValidate:
    def test_generic_coupling_is_valid(self, ramp, uniform4):
        c = Coupling(GENERIC_COUPLING, ramp, uniform4)
        assert c.left is ramp and c.right is uniform4

    def test_scaled_identity_couples_uniform_with_itself(self):
        n = 5
        u = Pmf.uniform(Alphabet.of_size(n))
        rows = tuple(
            tuple(F(1, n) if i == j else F(0) for j in range(n)) for i in range(n)
        )
        c = Coupling(rows, u, u)
        assert mismatch_prob(c) == 0

    def test_all_zero_matrix_fails_mass(self, ramp, uniform4):
        rows = tuple((F(0),) * 4 for _ in range(4))
        with pytest.raises(CouplingError) as err:
            Coupling(rows, ramp, uniform4)
        assert err.value.constraint == "total_mass"

    def test_negative_entry_reported_first(self, ramp, uniform4):
        rows = [list(r) for r in MAXIMAL_MATRIX]
        rows[0][1] += F(1, 100)
        rows[0][0] -= F(1, 100)
        rows[1][0] = F(-1, 100)
        rows[1][1] += F(1, 100)
        with pytest.raises(CouplingError) as err:
            Coupling(rows, ramp, uniform4)
        assert err.value.constraint == "negative_entry"

    def test_row_marginal_violation_names_symbol(self, ramp, uniform4):
        rows = [list(r) for r in MAXIMAL_MATRIX]
        rows[2][2] -= F(1, 80)  # move mass between rows, keep columns intact
        rows[3][2] = F(1, 80)
        with pytest.raises(CouplingError) as err:
            Coupling(rows, ramp, uniform4)
        assert err.value.constraint == "row_marginal"
        assert err.value.symbol == "3"

    def test_column_marginal_violation_names_symbol(self, ramp, uniform4):
        rows = [list(r) for r in MAXIMAL_MATRIX]
        rows[2][0] -= F(1, 80)  # move mass within a row
        rows[2][1] += F(1, 80)
        with pytest.raises(CouplingError) as err:
            Coupling(rows, ramp, uniform4)
        assert err.value.constraint == "column_marginal"
        assert err.value.symbol == "1"

    def test_shape_violation(self, ramp, uniform4):
        with pytest.raises(CouplingError) as err:
            Coupling(((F(1),),), ramp, uniform4)
        assert err.value.constraint == "shape"

    def test_non_fraction_entry_is_a_shape_violation_naming_its_cell(self, ramp, uniform4):
        rows = [list(r) for r in MAXIMAL_MATRIX]
        rows[2][1] = 0.0125
        negative_after = [list(r) for r in rows]
        negative_after[3][1] = F(-3, 80)
        for matrix in (rows, negative_after):
            with pytest.raises(CouplingError, match=r"entry \(3,2\) must be a Fraction, got float") as err:
                Coupling(matrix, ramp, uniform4)
            assert err.value.constraint == "shape"

    def test_negative_entry_names_its_cell(self, ramp, uniform4):
        rows = [list(r) for r in MAXIMAL_MATRIX]
        rows[3][1] = F(-3, 80)
        non_fraction_after = [list(r) for r in rows]
        non_fraction_after[3][2] = 0.0125
        for matrix in (rows, non_fraction_after):
            with pytest.raises(CouplingError, match=r"entry \(4,2\) is negative: -3/80") as err:
                Coupling(matrix, ramp, uniform4)
            assert err.value.constraint == "negative_entry"


class TestIndependent:
    def test_ramp_uniform_matrix(self, ramp, uniform4):
        assert coupling_independent(ramp, uniform4).j == INDEPENDENT_MATRIX

    def test_uniform_squared(self):
        n = 6
        u = Pmf.uniform(Alphabet.of_size(n))
        c = coupling_independent(u, u)
        assert all(v == F(1, n * n) for row in c.j for v in row)

    def test_point_masses(self):
        a = Alphabet(["1", "2"])
        p = Pmf(a, (F(1), F(0)))
        c = coupling_independent(p, p)
        assert c.j == ((F(1), F(0)), (F(0), F(0)))

    @settings(max_examples=150, deadline=None)
    @given(pmf_pairs())
    def test_each_entry_is_the_product_zero_factors_included(self, pair):
        p, q = pair
        rows = coupling_independent(p, q).j
        assert rows == tuple(tuple(x * y for y in q.p) for x in p.p)
        assert all(type(v) is Fraction for row in rows for v in row)


class TestIntConstructor:
    def test_equal_and_hash_equal_to_the_fraction_constructor(self, ramp, uniform4):
        c = coupling_maximal(ramp, uniform4)
        # Every pair unreduced by 6, so D is 6 times the lcm of the denominators
        d = Coupling.over(pair_rows(c.j, 6), ramp, uniform4)
        assert d.scale == 6 * c.scale
        assert d == c and hash(d) == hash(c)
        assert d != coupling_independent(ramp, uniform4)

    def test_j_is_built_on_first_read_and_equals_the_eager_one(self, ramp, uniform4):
        c = coupling_maximal(ramp, uniform4)
        d = Coupling.over(pair_rows(c.j), ramp, uniform4)
        assert lemma_audit(d) == lemma_audit(c)
        assert d[("4", "1")] == c[("4", "1")] == F(9, 80)
        assert "j" not in vars(d)
        assert d.j == c.j and repr(d.j) == repr(c.j) and repr(d) == repr(c)
        assert all(x is ZERO for row in d.j for x in row if not x)
        assert d.j is d.j

    def test_zero_entries_leave_the_scale_alone(self):
        half = Pmf(Alphabet(["1", "2"]), (F(1, 2), F(1, 2)))
        d = Coupling.over([(range(2), [(1, 2), (0, 3**200)]), (range(2), [(0, 5**200), (2, 4)])], half, half)
        assert d.scale == 4
        assert d == Coupling(((F(1, 2), ZERO), (ZERO, F(1, 2))), half, half)

    def test_builds_through_the_constructor(self, monkeypatch, ramp, uniform4):
        # One validation path: a wrapper around __init__ sees both entry points,
        # and the builders hand over pairs too.
        seen = []
        init = Coupling.__init__

        def recording(self, j, left, right):
            seen.append((type(j).__name__, j.coprime))
            init(self, j, left, right)

        monkeypatch.setattr(Coupling, "__init__", recording)
        c = coupling_maximal(ramp, uniform4)
        Coupling.over(pair_rows(c.j), ramp, uniform4)
        assert seen == [("_Coprime", True), ("_Ratios", False)]
        assert issubclass(coupling_module._Coprime, coupling_module._Ratios)

    def test_every_mass_check_is_check_mass_ratios(self, monkeypatch, ramp, uniform4):
        # One mass check: Pmf, Pmf2, Coupling(j) and Coupling.over all reach it.
        seen = []
        check = distributions_module.check_mass_ratios

        def recording(rows, width, label, error):
            seen.append(len(rows))
            return check(rows, width, label, error)

        monkeypatch.setattr(distributions_module, "check_mass_ratios", recording)
        monkeypatch.setattr(coupling_module, "check_mass_ratios", recording)
        Pmf(ramp.alphabet, ramp.p)
        Pmf2(Alphabet.of_size(2), ((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4))))
        Coupling(MAXIMAL_MATRIX, ramp, uniform4)
        Coupling.over(pair_rows(MAXIMAL_MATRIX), ramp, uniform4)
        assert seen == [1, 1, 4, 4]


def pair_rows(matrix, k: int = 1) -> list[tuple[range, list[tuple[int, int]]]]:
    """Each row of ``matrix`` as (range(N), its pairs, each unreduced by ``k``), for :meth:`Coupling.over`."""
    return [(range(len(row)), [(k * x.numerator, k * x.denominator) for x in row]) for row in matrix]


def sparse_rows(matrix) -> list[tuple[list[int], list[tuple[int, int]]]]:
    """Each row of ``matrix`` as the columns of its non-zero entries and their pairs, for :meth:`Coupling.over`."""
    rows = []
    for row in matrix:
        columns = [b for b, x in enumerate(row) if x]
        rows.append((columns, [(row[b].numerator, row[b].denominator) for b in columns]))
    return rows


def first_error(build):
    try:
        build()
    except CouplingError as exc:
        return exc.constraint, exc.symbol, str(exc)
    return None


class TestSparseRows:
    """A coupling whose rows list only their non-zero entries is the dense-built one."""

    @settings(max_examples=100, deadline=None)
    @given(pmf_pairs(max_n=6), st.integers(min_value=0, max_value=2**32))
    def test_every_reader_matches_the_dense_form(self, pair, seed):
        p, q = pair
        n = len(p.alphabet)
        dense = Coupling(random_coupling(random.Random(seed), p, q).j, p, q)
        sparse = Coupling.over(sparse_rows(dense.j), p, q)
        assert sparse.j == dense.j and sparse == dense and hash(sparse) == hash(dense)
        assert sparse.scale == dense.scale
        for i in range(n):
            assert [sparse.entry(i, k) for k in range(n)] == list(dense.j[i])
        assert sparse.diagonal() == dense.diagonal() == tuple(dense.j[i][i] for i in range(n))
        assert sparse.diagonal_ints() == dense.diagonal_ints()
        assert sparse.diagonal_mass() == dense.diagonal_mass()
        assert lemma_audit(sparse) == lemma_audit(dense)

    @settings(max_examples=40, deadline=None)
    @given(pmf2_pairs())
    def test_coupling4_lookups_match_the_dense_form(self, pair):
        p2, q2 = pair
        dense = coupling4_maximal(p2, q2)
        sparse = Coupling4(Coupling.over(sparse_rows(dense.flat.j), dense.flat.left, dense.flat.right), p2, q2)
        symbols = p2.alphabet.symbols
        quads = [(a, b, c, d) for a in symbols for b in symbols for c in symbols for d in symbols]
        assert [sparse[quad] for quad in quads] == [dense[quad] for quad in quads]
        assert mismatch_components(sparse) == mismatch_components(dense)

    @settings(max_examples=150, deadline=None)
    @given(
        pmf_pairs(max_n=5),
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from(["negative", "total", "marginal"]),
    )
    def test_both_forms_raise_the_same_first_error(self, pair, seed, change):
        p, q = pair
        n = len(p.alphabet)
        rng = random.Random(seed)
        m = [list(row) for row in random_coupling(rng, p, q).j]
        a, b, c, d = (rng.randrange(n) for _ in range(4))
        delta = F(rng.randint(1, 5), rng.randint(1, 7))
        if change == "negative":
            m[a][b] = -delta
        elif change == "total":
            m[a][b] += delta
        else:  # the same mass moved between two cells: only marginals can fail, or a sign
            m[a][b] += delta
            m[c][d] -= delta
        dense = first_error(lambda: Coupling(m, p, q))
        assert first_error(lambda: Coupling.over(sparse_rows(m), p, q)) == dense
        if change != "marginal" or (a, b) != (c, d):
            assert dense is not None

    def test_worked_errors(self, ramp, uniform4):
        negative = [list(r) for r in MAXIMAL_MATRIX]
        negative[3][1] = F(-3, 80)
        total = [list(r) for r in MAXIMAL_MATRIX]
        total[0][3] = F(1, 100)
        column = [list(r) for r in MAXIMAL_MATRIX]
        column[2][0] -= F(1, 80)
        column[2][1] += F(1, 80)
        expected = [
            ("negative_entry", None, "entry (4,2) is negative: -3/80"),
            ("total_mass", None, "probabilities sum to 101/100, expected 1"),
            ("column_marginal", "1", "column marginal at '1' is 19/80, expected 1/4"),
        ]
        for m, error in zip((negative, total, column), expected):
            assert first_error(lambda: Coupling.over(sparse_rows(m), ramp, uniform4)) == error
            assert first_error(lambda: Coupling(m, ramp, uniform4)) == error

    @pytest.mark.parametrize(
        "last_row, last_columns",
        [([(1, 4)], [2, 3]), ([(1, 8), (1, 8)], [3, 2]), ([(1, 8), (1, 8)], [3, 3]), ([(1, 4)], [4]), ([(1, 4)], None)],
        ids=["length", "unsorted", "repeated", "out-of-range", "row-count"],
    )
    def test_malformed_columns_are_a_shape_error(self, ramp, uniform4, last_row, last_columns):
        pairs = [[(1, 10)], [(1, 5)], [(1, 4)], last_row]
        columns = [[0], [1], [2]] + ([last_columns] if last_columns is not None else [])
        assert first_error(lambda: Coupling.over(list(zip(columns, pairs)), ramp, uniform4)) == (
            "shape", None, "joint matrix must be 4x4"
        )


class TestResiduals:
    def test_ramp_uniform(self, ramp, uniform4):
        res = residuals(ramp, uniform4)
        assert res.rx == (F(0), F(0), F(1, 20), F(3, 20))
        assert res.ry == (F(3, 20), F(1, 20), F(0), F(0))
        assert res.mismatch == F(1, 5)
        assert sum(res.rx) == sum(res.ry) == res.mismatch

    def test_equal_distributions(self, ramp):
        res = residuals(ramp, ramp)
        assert res.rx == res.ry == (F(0),) * 4
        assert res.mismatch == F(0)

    def test_disjoint_supports(self):
        a = Alphabet(["1", "2"])
        p = Pmf(a, (F(1), F(0)))
        q = Pmf(a, (F(0), F(1)))
        res = residuals(p, q)
        assert res.rx == (F(1), F(0))
        assert res.ry == (F(0), F(1))
        assert res.mismatch == F(1)

    @settings(max_examples=150, deadline=None)
    @given(pmf_pairs())
    def test_invariants(self, pair):
        p, q = pair
        res = residuals(p, q)
        assert sum(res.rx) == sum(res.ry) == res.mismatch == vdist_halfsum(p, q)
        assert all(x * y == 0 for x, y in zip(res.rx, res.ry))
        assert all(x >= 0 for x in res.rx) and all(y >= 0 for y in res.ry)


class TestMaximal:
    def test_ramp_uniform_matrix_entry_for_entry(self, ramp, uniform4):
        assert coupling_maximal(ramp, uniform4).j == MAXIMAL_MATRIX

    def test_equal_distributions_take_diagonal_branch(self, ramp):
        c = coupling_maximal(ramp, ramp)
        for i in range(4):
            for j in range(4):
                assert c.j[i][j] == (ramp.p[i] if i == j else F(0))
        assert mismatch_prob(c) == F(0)

    def test_flattened_two_dim_pair_spot_entries(self, diag3, band3):
        c = coupling_maximal(diag3.flatten(), band3.flatten())
        assert c[("(1,1)", "(1,2)")] == F(4, 45)
        assert c[("(3,3)", "(2,1)")] == F(1, 45)
        assert c[("(3,3)", "(3,3)")] == F(2, 9)
        assert mismatch_prob(c) == F(5, 9)

    def test_diagonal_is_pointwise_min(self, ramp, uniform4):
        c = coupling_maximal(ramp, uniform4)
        for i in range(4):
            assert c.j[i][i] == min(ramp.p[i], uniform4.p[i])

    @settings(max_examples=150, deadline=None)
    @given(pmf_pairs())
    def test_mismatch_equals_vdist(self, pair):
        p, q = pair
        assert mismatch_prob(coupling_maximal(p, q)) == vdist_halfsum(p, q)

    @settings(max_examples=100, deadline=None)
    @given(pmf_pairs())
    def test_output_revalidates_against_inputs(self, pair):
        p, q = pair
        c = coupling_maximal(p, q)
        assert Coupling(c.j, p, q).j == c.j


def unchecked_pmf(probs) -> Pmf:
    """A Pmf that skips validation, to feed the checks a corrupted input."""
    pmf = object.__new__(Pmf)
    object.__setattr__(pmf, "alphabet", Alphabet.of_size(len(probs)))
    object.__setattr__(pmf, "p", tuple(probs))
    return pmf


class TestMaximalDiagonal:
    @settings(max_examples=150, deadline=None)
    @given(pmf_pairs())
    def test_equals_dense_diagonal(self, pair):
        p, q = pair
        c = coupling_maximal(p, q)
        assert maximal_diagonal(p, q) == tuple(c.j[i][i] for i in range(len(p.alphabet)))

    @pytest.mark.parametrize(
        "p,q",
        [
            # total 9/10: the column marginal at "2" falls short
            ((F(1, 2), F(2, 5)), (F(1, 2), F(1, 2))),
            # negative entry on the diagonal
            ((F(-1, 10), F(11, 10)), (F(1, 2), F(1, 2))),
            # equal but unnormalized: zero residual mass, total 1/2
            ((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4))),
        ],
    )
    def test_rejects_what_dense_validation_rejects(self, p, q):
        p, q = unchecked_pmf(p), unchecked_pmf(q)
        with pytest.raises(CouplingError):
            coupling_maximal(p, q)
        with pytest.raises(CorruptedCouplingError):
            maximal_diagonal(p, q)


class TestMismatchProb:
    def test_independent(self, ramp, uniform4):
        assert mismatch_prob(coupling_independent(ramp, uniform4)) == F(3, 4)

    def test_maximal(self, ramp, uniform4):
        assert mismatch_prob(coupling_maximal(ramp, uniform4)) == F(1, 5)

    def test_generic(self, ramp, uniform4):
        c = Coupling(GENERIC_COUPLING, ramp, uniform4)
        assert mismatch_prob(c) == F(19, 40)


class TestLemmaAudit:
    def test_independent_case(self, ramp, uniform4):
        audit = lemma_audit(coupling_independent(ramp, uniform4))
        assert (audit.v, audit.mismatch) == (F(1, 5), F(3, 4))
        assert audit.holds and not audit.maximal
        assert audit.gap == F(11, 20)

    def test_maximal_case(self, ramp, uniform4):
        audit = lemma_audit(coupling_maximal(ramp, uniform4))
        assert (audit.v, audit.mismatch) == (F(1, 5), F(1, 5))
        assert audit.maximal and audit.gap == F(0)

    def test_generic_case(self, ramp, uniform4):
        audit = lemma_audit(Coupling(GENERIC_COUPLING, ramp, uniform4))
        assert (audit.v, audit.mismatch) == (F(1, 5), F(19, 40))
        assert audit.holds and not audit.maximal

    def test_json_dict(self, ramp, uniform4):
        audit = lemma_audit(coupling_independent(ramp, uniform4))
        assert audit.to_json_dict() == {
            "v": "1/5",
            "mismatch": "3/4",
            "holds": True,
            "maximal": False,
            "gap": "11/20",
        }


class TestInequalityOverRandomCouplings:
    def test_random_convex_combinations_never_violate(self):
        rng = random.Random(20240817)
        for _ in range(120):
            n = rng.randint(1, 8)
            p = random_pmf(rng, n)
            q = random_pmf(rng, n)
            c = random_coupling(rng, p, q)
            audit = lemma_audit(c)
            assert audit.holds and audit.v <= audit.mismatch

    def test_convex_combination_of_extremes(self, ramp, uniform4):
        mix = convex_combination(
            [coupling_independent(ramp, uniform4), coupling_maximal(ramp, uniform4)],
            [F(1, 3), F(2, 3)],
        )
        audit = lemma_audit(mix)
        assert audit.v == F(1, 5)
        # mixing weights transfer linearly to the mismatch probability
        assert audit.mismatch == F(1, 3) * F(3, 4) + F(2, 3) * F(1, 5)


class TestIndependentStrictGap:
    def test_interior_pairs_are_strict(self):
        rng = random.Random(999)
        for _ in range(100):
            n = rng.randint(2, 8)
            p = random_pmf(rng, n, interior=True)
            q = random_pmf(rng, n, interior=True)
            v = vdist_halfsum(p, q)
            assert v < mismatch_prob(coupling_independent(p, q))

    def test_uniform_pair_closed_form(self):
        for n in (2, 3, 4, 16):
            u = Pmf.uniform(Alphabet.of_size(n))
            assert vdist_halfsum(u, u) == 0
            assert mismatch_prob(coupling_independent(u, u)) == 1 - F(1, n)

    def test_boundary_case_can_be_tight(self):
        # a point mass against uniform: the hypothesis fails and so does strictness
        a = Alphabet.of_size(4)
        p = Pmf.point_mass(a, "1")
        u = Pmf.uniform(a)
        assert vdist_halfsum(p, u) == mismatch_prob(coupling_independent(p, u)) == F(3, 4)


class TestAlphabetChecks:
    def test_mismatched_alphabets_rejected(self, ramp):
        other = Pmf.uniform(Alphabet(["a", "b", "c", "d"]))
        for op in (coupling_independent, coupling_maximal, residuals):
            with pytest.raises(AlphabetMismatchError):
                op(ramp, other)


# The denominator has about 4771 digits, past the default int-to-str limit.
HUGE_DENOMINATOR = 3**10000


class TestMessagesPastTheDigitLimit:
    def test_violated_inequality_names_its_values(self, monkeypatch, default_digit_limit):
        tiny = F(1, HUGE_DENOMINATOR)
        p = Pmf(Alphabet.of_size(2), (tiny, 1 - tiny))
        c = coupling_independent(p, p)
        monkeypatch.setattr(coupling_module, "vdist_halfsum", lambda p, q: F(1))
        pattern = r"coupling inequality violated: v=1 > mismatch=<a rational over a \d+-bit denominator>"
        with pytest.raises(CorruptedCouplingError, match=pattern):
            lemma_audit(c)

    def test_negative_residual_mass_names_its_value(self, default_digit_limit):
        scale = HUGE_DENOMINATOR
        pattern = r"maximal coupling: residual mass <a rational over a \d+-bit denominator> is negative"
        with pytest.raises(CorruptedCouplingError, match=pattern):
            check_maximal([scale - 1, 2], [scale - 1, 2], scale, ("1", "2"))
