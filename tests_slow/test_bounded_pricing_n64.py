"""A general-cost solve at N = 64, outside the default test run.

The problem is solved from the solver's least-cost start and from the
closed-form start of the 0/1 cost put in its place, each under the
shipped pricing (the most negative reduced cost, Bland's rule after a
degenerate pivot) and then under Bland's rule throughout, from which the
simplex makes thousands of pivots.  The cell each pricing enters must be
the one its dense reference scan picks, cell by cell in plain Python,
and each result must be certified.  Runs with the other slow tests::

    PYTHONPATH=src python -m pytest -q tests_slow
"""

from __future__ import annotations

import random
from fractions import Fraction

import couplingkit.transport as transport
from couplingkit import Alphabet, Pmf, TransportProblem, certify, solve_transport

N = 64


def most_negative(cost, u, v):
    """The dense most-negative scan: the least negative reduced cost, first in row-major order."""
    best, cell = 0, None
    for a, (crow, ua) in enumerate(zip(cost, u)):
        for b, (c, vb) in enumerate(zip(crow, v)):
            if c - ua - vb < best:
                best, cell = c - ua - vb, (a, b)
    return cell


def first_negative(cost, u, v):
    """The dense Bland scan: the first negative reduced cost in row-major order."""
    for a, (crow, ua) in enumerate(zip(cost, u)):
        for b, (c, vb) in enumerate(zip(crow, v)):
            if c - ua - vb < 0:
                return a, b
    return None


def test_every_entering_cell_is_the_dense_scans(monkeypatch):
    rng = random.Random(2016)
    alphabet = Alphabet.of_size(N)

    def marginal() -> Pmf:
        weights = [rng.randint(1, 2**16) for _ in range(N)]
        return Pmf(alphabet, [Fraction(w, sum(weights)) for w in weights])

    cost = [[Fraction(rng.randint(0, 99)) for _ in range(N)] for _ in range(N)]
    tp = TransportProblem(marginal(), marginal(), cost)
    cells = []
    bland_cell = transport._entering_cell

    def checked(price, reference):
        def call(cost, u, v):
            cells.append(price(cost, u, v))
            assert cells[-1] == reference(cost, u, v)
            return cells[-1]

        return call

    monkeypatch.setattr(transport, "_entering_cell", checked(bland_cell, first_negative))
    monkeypatch.setattr(transport, "_entering_dantzig", checked(transport._entering_dantzig, most_negative))

    def closed_form(supply, demand, cost):
        return transport._initial_basis(supply, demand)

    starts = (transport._least_cost_basis, closed_form)
    for bland in (False, True):
        if bland:  # Bland's rule at every pivot
            monkeypatch.setattr(transport, "_entering_dantzig", checked(bland_cell, first_negative))
        for start in starts:
            monkeypatch.setattr(transport, "_least_cost_basis", start)
            coupling, cert, _ = solve_transport(tp)
            assert cells[-1] is None
            assert certify(coupling, cert, tp)
    assert sum(cell is not None for cell in cells) > 2000
