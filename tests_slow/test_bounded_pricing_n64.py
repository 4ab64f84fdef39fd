"""A general-cost solve at N = 64, outside the default test run.

The problem is solved twice: from the solver's least-cost start, and
from the closed-form start of the 0/1 cost put in its place, from which
the simplex makes thousands of pivots, so the row bounds of its pricing
are lowered and reset many times over.  At every pivot the cell it
enters must be the one the dense row-major scan picks, and each result
must be certified.  Runs with the other slow tests::

    PYTHONPATH=src python -m pytest -q tests_slow
"""

from __future__ import annotations

import random
from fractions import Fraction

import couplingkit.transport as transport
from couplingkit import Alphabet, Pmf, TransportProblem, certify, solve_transport

N = 64


def test_every_entering_cell_is_the_dense_scans(monkeypatch):
    rng = random.Random(2016)
    alphabet = Alphabet.of_size(N)

    def marginal() -> Pmf:
        weights = [rng.randint(1, 2**16) for _ in range(N)]
        return Pmf(alphabet, [Fraction(w, sum(weights)) for w in weights])

    cost = [[Fraction(rng.randint(0, 99)) for _ in range(N)] for _ in range(N)]
    tp = TransportProblem(marginal(), marginal(), cost)
    cells = []
    price = transport._entering_bounded

    def checked(cost, u, v, basic, bound, floor):
        cells.append(price(cost, u, v, basic, bound, floor))
        assert cells[-1] == transport._entering_cell(cost, u, v)
        return cells[-1]

    monkeypatch.setattr(transport, "_entering_bounded", checked)
    def closed_form(supply, demand, cost):
        return transport._initial_basis(supply, demand)

    for start in (transport._least_cost_basis, closed_form):
        monkeypatch.setattr(transport, "_least_cost_basis", start)
        coupling, cert, _ = solve_transport(tp)
        assert cells[-1] is None
        assert certify(coupling, cert, tp)
    assert len(cells) > 2000
