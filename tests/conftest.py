"""Shared fixtures and random-instance generators.

The worked-example inputs are restated here from literals rather than
imported from the package, so golden tests stay independent of the code
paths they check.  Random couplings for inequality sweeps are built as
convex combinations of the independent coupling, the maximal coupling,
and solver vertices under random costs; that generator is test
infrastructure, not API.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from couplingkit import (
    Alphabet,
    Coupling,
    Pmf,
    Pmf2,
    TransportProblem,
    coupling_independent,
    coupling_maximal,
    solve_transport,
)

F = Fraction


@pytest.fixture
def default_digit_limit():
    """Python's default int-to-str digit limit (4300) for one test, restored after it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(limit)


@pytest.fixture
def alpha4() -> Alphabet:
    return Alphabet(["1", "2", "3", "4"])


@pytest.fixture
def ramp(alpha4) -> Pmf:
    return Pmf(alpha4, (F(1, 10), F(1, 5), F(3, 10), F(2, 5)))


@pytest.fixture
def uniform4(alpha4) -> Pmf:
    return Pmf(alpha4, (F(1, 4),) * 4)


@pytest.fixture
def alpha3() -> Alphabet:
    return Alphabet(["1", "2", "3"])


@pytest.fixture
def diag3(alpha3) -> Pmf2:
    rows = [[F(0)] * 3 for _ in range(3)]
    for i in range(3):
        rows[i][i] = F(1, 3)
    return Pmf2(alpha3, rows)


@pytest.fixture
def band3(alpha3) -> Pmf2:
    rows = (
        (F(1, 9), F(2, 9), F(0)),
        (F(1, 9), F(1, 9), F(1, 9)),
        (F(0), F(1, 9), F(2, 9)),
    )
    return Pmf2(alpha3, rows)


# The hand-picked coupling of ramp vs uniform: valid, non-product, non-maximal.
GENERIC_COUPLING = (
    (F(1, 16), F(1, 80), F(1, 80), F(1, 80)),
    (F(1, 40), F(1, 8), F(1, 40), F(1, 40)),
    (F(9, 160), F(7, 160), F(13, 80), F(3, 80)),
    (F(17, 160), F(11, 160), F(1, 20), F(7, 40)),
)


def random_pmf(
    rng: random.Random,
    n: int,
    allow_zero: bool = True,
    interior: bool = False,
    max_weight: int = 30,
) -> Pmf:
    """Exact random distribution from integer weights normalized by their sum."""
    low = 1 if (interior or not allow_zero) else 0
    while True:
        weights = [rng.randint(low, max_weight) for _ in range(n)]
        total = sum(weights)
        if total == 0:
            continue
        if interior and any(w == total for w in weights):
            continue  # a full-mass symbol would sit on the boundary
        return Pmf(Alphabet.of_size(n), tuple(F(w, total) for w in weights))


def random_pmf2(rng: random.Random, n: int, max_weight: int = 30) -> Pmf2:
    while True:
        weights = [[rng.randint(0, max_weight) for _ in range(n)] for _ in range(n)]
        total = sum(sum(row) for row in weights)
        if total == 0:
            continue
        rows = tuple(tuple(F(w, total) for w in row) for row in weights)
        return Pmf2(Alphabet.of_size(n), rows)


def random_cost(rng: random.Random, n: int, max_cost: int = 9):
    return tuple(
        tuple(F(rng.randint(0, max_cost)) for _ in range(n)) for _ in range(n)
    )


def convex_combination(couplings: list[Coupling], weights: list[Fraction]) -> Coupling:
    assert sum(weights) == 1
    n = len(couplings[0].alphabet)
    rows = tuple(
        tuple(
            sum((w * c.j[i][j] for w, c in zip(weights, couplings)), F(0))
            for j in range(n)
        )
        for i in range(n)
    )
    return Coupling(rows, couplings[0].left, couplings[0].right)


def random_coupling(rng: random.Random, p: Pmf, q: Pmf, parts: int = 3) -> Coupling:
    """Random point of the coupling polytope: convex mix of named couplings
    and solver vertices under random costs."""
    pool = [coupling_independent(p, q), coupling_maximal(p, q)]
    n = len(p.alphabet)
    for _ in range(parts):
        vertex, _, _ = solve_transport(TransportProblem(p, q, random_cost(rng, n)))
        pool.append(vertex)
    raw = [rng.randint(0, 10) for _ in pool]
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    return convex_combination(pool, [F(w, total) for w in raw])


@st.composite
def pmf_batch(draw, count: int, min_n: int = 1, max_n: int = 8, max_weight: int = 20):
    """``count`` exact random distributions sharing one alphabet."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    alphabet = Alphabet.of_size(n)

    def one() -> Pmf:
        weights = draw(
            st.lists(
                st.integers(min_value=0, max_value=max_weight),
                min_size=n,
                max_size=n,
            ).filter(lambda ws: sum(ws) > 0)
        )
        total = sum(weights)
        return Pmf(alphabet, tuple(F(w, total) for w in weights))

    return tuple(one() for _ in range(count))


def pmf_pairs(min_n: int = 1, max_n: int = 8, max_weight: int = 20):
    return pmf_batch(2, min_n=min_n, max_n=max_n, max_weight=max_weight)


def pmf_triples(min_n: int = 1, max_n: int = 8, max_weight: int = 20):
    return pmf_batch(3, min_n=min_n, max_n=max_n, max_weight=max_weight)


@st.composite
def pmf2_pairs(draw, min_n: int = 1, max_n: int = 3, max_weight: int = 9):
    """Two exact random two-dim distributions on one alphabet."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    alphabet = Alphabet.of_size(n)

    def one() -> Pmf2:
        weights = draw(
            st.lists(
                st.integers(min_value=0, max_value=max_weight),
                min_size=n * n,
                max_size=n * n,
            ).filter(lambda ws: sum(ws) > 0)
        )
        total = sum(weights)
        rows = tuple(
            tuple(F(w, total) for w in weights[i * n : (i + 1) * n]) for i in range(n)
        )
        return Pmf2(alphabet, rows)

    return one(), one()
