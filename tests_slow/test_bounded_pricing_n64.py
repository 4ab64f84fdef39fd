"""A general-cost solve at N = 64, outside the default test run.

The problem is solved from the solver's least-cost start and from the
closed-form start of the 0/1 cost put in its place, each under the
shipped pricing (a candidate list of each row's least, re-priced until
none is negative; Bland's rule after a degenerate pivot) and then under
Bland's rule throughout, from which the simplex makes thousands of
pivots.  Every pricing must follow its plain-Python reference: each scan
lists each row's first least negative cell, each entering cell is the
most negative listed one and, right after a scan, the dense most
negative cell; Bland's cell is the dense first negative one.  Each
result must be certified.  Runs with the other slow tests::

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


def row_leasts(cost, u, v):
    """The scan's reference: each row's first cell of least reduced cost, in row order, where it is negative."""
    listed = []
    for a, (crow, ua) in enumerate(zip(cost, u)):
        best, cell = 0, None
        for b, (c, vb) in enumerate(zip(crow, v)):
            if c - ua - vb < best:
                best, cell = c - ua - vb, (a, b)
        if cell is not None:
            listed.append(cell)
    return listed


def most_negative_listed(candidates, cost, u, v):
    """The candidate pricing's reference: the most negative listed cell, the earliest of ties."""
    best, cell = 0, None
    for a, b in candidates:
        if cost[a][b] - u[a] - v[b] < best:
            best, cell = cost[a][b] - u[a] - v[b], (a, b)
    return cell


def test_every_entering_cell_is_the_dense_scans(monkeypatch):
    rng = random.Random(2016)
    alphabet = Alphabet.of_size(N)

    def marginal() -> Pmf:
        weights = [rng.randint(1, 2**16) for _ in range(N)]
        return Pmf(alphabet, [Fraction(w, sum(weights)) for w in weights])

    cost = [[Fraction(rng.randint(0, 99)) for _ in range(N)] for _ in range(N)]
    tp = TransportProblem(marginal(), marginal(), cost)
    cells = []
    listed = []  # what the next candidate pricing must be handed
    bland, scan, candidate = transport._entering_cell, transport._row_leasts, transport._entering_candidate
    scanned = False  # the last pricing call was a scan

    def checked_bland(cost, u, v):
        nonlocal scanned
        cells.append(bland(cost, u, v))
        assert cells[-1] == first_negative(cost, u, v)
        listed.clear()
        scanned = False
        return cells[-1]

    def checked_scan(cost, u, v):
        nonlocal scanned
        listed[:] = scan(cost, u, v)
        assert listed == row_leasts(cost, u, v)
        scanned = True
        return list(listed)

    def checked_candidate(candidates, cost, u, v):
        nonlocal scanned
        assert candidates == listed
        cells.append(candidate(candidates, cost, u, v))
        assert cells[-1] == most_negative_listed(candidates, cost, u, v)
        if scanned:
            assert cells[-1] == most_negative(cost, u, v)
        scanned = False
        return cells[-1]

    monkeypatch.setattr(transport, "_entering_cell", checked_bland)
    monkeypatch.setattr(transport, "_row_leasts", checked_scan)
    monkeypatch.setattr(transport, "_entering_candidate", checked_candidate)

    def closed_form(supply, demand, cost):
        return transport._initial_basis(supply, demand)

    starts = (transport._least_cost_basis, closed_form)
    for bland_only in (False, True):
        if bland_only:  # Bland's rule at every pivot
            monkeypatch.setattr(
                transport, "_entering_candidate", lambda candidates, cost, u, v: checked_bland(cost, u, v)
            )
        for start in starts:
            monkeypatch.setattr(transport, "_least_cost_basis", start)
            coupling, cert, _ = solve_transport(tp)
            assert cells[-1] is None
            assert certify(coupling, cert, tp)
    assert sum(cell is not None for cell in cells) > 2000
