"""The builders and the coupling-file parsers list only non-zero cells, and give the dense couplings.

Each builder is held to the cell-by-cell Fraction matrix of
:mod:`tests.fraction_reference` (or, for the constrained two-dim
coupling, to its definition), on pairs with zeros, ties, P = Q and point
masses: the same ``j``, ``scale``, ``==`` and ``hash``.  A coupling file
parses to the coupling that a parse of every cell into a Fraction gives,
whatever spelling its zeros take, and a bad literal after zeros is
reported as before.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplingkit import (
    Alphabet,
    Coupling,
    Coupling4,
    MismatchComponents,
    ParseError,
    Pmf,
    Pmf2,
    coupling4_constrained,
    coupling4_independent,
    coupling4_maximal,
    coupling_independent,
    coupling_maximal,
    mismatch_components,
)
from couplingkit.jsonio import coupling4_to_obj, coupling_to_obj, parse_coupling4_blocks, parse_coupling_matrix

from . import fraction_reference as reference

F = Fraction


def shaped(p: Pmf, q: Pmf, shape: str, rng: random.Random) -> tuple[Pmf, Pmf]:
    """The pair ``(p, q)`` as drawn, or reshaped: P = Q, a point mass, or Q as P with one unit moved (ties)."""
    n = len(p.p)
    if shape == "equal":
        return p, p
    if shape == "point":
        at = rng.randrange(n)
        point = Pmf(p.alphabet, [F(int(k == at)) for k in range(n)])
        return (point, q) if rng.random() < 0.5 else (q, point)
    if shape == "tied":
        a, b = rng.randrange(n), rng.randrange(n)
        step = min(p.p[a], F(1, 7))
        moved = list(p.p)
        moved[a] -= step
        moved[b] += step
        return p, Pmf(p.alphabet, moved)
    return p, q


@st.composite
def pairs(draw, max_n: int = 7) -> tuple[Pmf, Pmf]:
    """One-dim pairs whose entries are often zero, in one of the shapes of :func:`shaped`."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    alphabet = Alphabet.of_size(n)

    def one() -> Pmf:
        weights = draw(st.lists(st.sampled_from((0, 0, 1, 2, 3, 7, 12)), min_size=n, max_size=n)
                       .filter(lambda ws: sum(ws) > 0))
        return Pmf(alphabet, [F(w, sum(weights)) for w in weights])

    shape = draw(st.sampled_from(("random", "random", "equal", "point", "tied")))
    return shaped(one(), one(), shape, random.Random(draw(st.integers(min_value=0, max_value=2**32))))


def assert_same_coupling(built: Coupling, dense: Coupling) -> None:
    assert built.j == dense.j
    assert built.scale == dense.scale
    assert built == dense and hash(built) == hash(dense)


def assert_no_zero_listed(c: Coupling) -> None:
    assert all(x for _, pairs in c._rows for x, _ in pairs)


class TestBuilders:
    @settings(max_examples=150, deadline=None)
    @given(pairs())
    def test_independent_is_the_dense_product(self, pair):
        p, q = pair
        built = coupling_independent(p, q)
        assert_same_coupling(built, Coupling(reference.coupling_independent_rows(p, q), p, q))
        assert_no_zero_listed(built)
        if all(q.p):  # Q has no zero: every row P(a) > 0 keeps the dense form
            assert all(isinstance(columns, range) for (columns, _), x in zip(built._rows, p.p) if x)
        assert all(not pairs for (_, pairs), x in zip(built._rows, p.p) if not x)

    @settings(max_examples=150, deadline=None)
    @given(pairs())
    def test_maximal_is_the_dense_product_residual(self, pair):
        p, q = pair
        built = coupling_maximal(p, q)
        assert_same_coupling(built, Coupling(reference.coupling_maximal_rows(p, q), p, q))
        assert_no_zero_listed(built)

    def test_maximal_rows_list_the_residual_support_and_the_diagonal(self, ramp, uniform4):
        # ry > 0 at columns 0 and 1; rows 2 and 3 carry rx > 0 and list them before their diagonal
        assert [list(columns) for columns, _ in coupling_maximal(ramp, uniform4)._rows] == [
            [0], [1], [0, 1, 2], [0, 1, 3]
        ]
        assert [list(columns) for columns, _ in coupling_maximal(uniform4, ramp)._rows] == [
            [0, 2, 3], [1, 2, 3], [2], [3]
        ]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**32))
    def test_two_dim_builders_are_the_dense_ones(self, n, seed):
        rng = random.Random(seed)
        alphabet = Alphabet.of_size(n)

        def pmf2(weights) -> Pmf2:
            total = sum(weights)
            return Pmf2(alphabet, [[F(w, total) for w in weights[i * n:(i + 1) * n]] for i in range(n)])

        q2 = pmf2([rng.choice((0, 0, 1, 2, 5)) for _ in range(n * n - 1)] + [1])
        rows = q2.row_marginal().p
        p2 = Pmf2(alphabet, [[rows[i] if i == k else F(0) for k in range(n)] for i in range(n)])
        for left, right in ((p2, q2), (q2, p2), (q2, q2)):
            flat_p, flat_q = left.flatten(), right.flatten()
            for build, rows_of in ((coupling4_maximal, reference.coupling_maximal_rows),
                                   (coupling4_independent, reference.coupling_independent_rows)):
                built = build(left, right)
                dense = Coupling4(Coupling(rows_of(flat_p, flat_q), flat_p, flat_q), left, right)
                assert_same_coupling(built.flat, dense.flat)
                assert_no_zero_listed(built.flat)
                assert mismatch_components(built) == dense_components(dense)
        # x1 = x2 = y1: all mass on (a, a, a, b), at Q2(a, b)
        built = coupling4_constrained(p2, q2)
        cells = [[F(0)] * (n * n) for _ in range(n * n)]
        for a in range(n):
            for b in range(n):
                cells[a * n + a][a * n + b] = q2.p[a][b]
        dense = Coupling(cells, p2.flatten(), q2.flatten())
        assert_same_coupling(built.flat, dense)
        assert_no_zero_listed(built.flat)
        assert mismatch_components(built) == dense_components(Coupling4(dense, p2, q2))


def dense_components(c4: Coupling4) -> MismatchComponents:
    """Both mismatch probabilities, summed cell by cell over the dense Fraction matrix."""
    n = len(c4.alphabet)
    pair_match = coord_match = F(0)
    for r, row in enumerate(c4.flat.j):
        for column, x in enumerate(row):
            pair_match += x if column == r else 0
            coord_match += x if column % n == r % n else 0
    return MismatchComponents(pair_mismatch=1 - pair_match, coord_mismatch=1 - coord_match)


class TestCouplingFiles:
    @settings(max_examples=100, deadline=None)
    @given(pairs(max_n=5), st.sampled_from(("maximal", "independent")), st.integers(min_value=0, max_value=2**32))
    def test_zero_spellings_parse_to_the_dense_coupling(self, pair, kind, seed):
        p, q = pair
        rng = random.Random(seed)
        obj = coupling_to_obj((coupling_maximal if kind == "maximal" else coupling_independent)(p, q))
        obj["matrix"] = [[rng.choice(("0", "0", "0/7", "00")) if x == "0" else x for x in row] for row in obj["matrix"]]
        _, rows = parse_coupling_matrix(obj)
        _, dense = reference.parse_coupling_rows("matrix", obj, "coupling")
        parsed = Coupling.over(rows, p, q)
        assert_same_coupling(parsed, Coupling(dense, p, q))
        for (columns, _), text in zip(rows, obj["matrix"]):
            assert list(columns) == [b for b, x in enumerate(text) if x != "0"]
            assert isinstance(columns, range) == ("0" not in text)

    def test_zero_spellings_in_blocks(self, diag3, band3):
        obj = coupling4_to_obj(coupling4_maximal(diag3, band3))
        spellings = iter(["0/7", "00", "0"] * 81)
        for block in obj["blocks"].values():
            for cells in block.values():
                cells[:] = [next(spellings) if x == "0" else x for x in cells]
        _, rows = parse_coupling4_blocks(obj)
        _, dense = reference.parse_coupling_rows("blocks", obj, "coupling4")
        flat = Coupling.over(rows, diag3.flatten(), band3.flatten())
        assert_same_coupling(flat, Coupling(dense, diag3.flatten(), band3.flatten()))
        columns = [c for c, _ in rows]
        assert sum(map(len, columns)) < 81 and any(not isinstance(c, range) for c in columns)

    @pytest.mark.parametrize("row", [
        ["0", "0", "x", "1/2"],
        ["0/7", "0", "1/0", "x"],
        ["00", "0", "0", "-"],
        ["0", "0", "0"],
    ])
    def test_a_bad_literal_after_zeros_is_reported_as_before(self, row):
        obj = {"alphabet": ["1", "2", "3", "4"], "matrix": [["1/4", "0", "0", "0"], row, ["0"] * 4, ["0"] * 4]}
        with pytest.raises(ParseError) as expected:
            reference.parse_coupling_rows("matrix", obj, "c.json")
        with pytest.raises(ParseError) as raised:
            parse_coupling_matrix(obj, where="c.json")
        assert str(raised.value) == str(expected.value)
