"""The vertex oracle at N = 5, outside the default test run.

At N = 5 the walk in :func:`~couplingkit.transport.vertex_enumerate`
visits all 5^8 = 390625 spanning trees, which takes seconds, so tier-1
stops at N = 4 and this module runs on its own::

    PYTHONPATH=src python -m pytest -q tests_slow

On each instance the least cost over every vertex of the transportation
polytope must equal the objective of the certified simplex solution, and
the simplex's coupling must be one of those vertices.
"""

from __future__ import annotations

import random
from fractions import Fraction

from couplingkit import (
    Alphabet,
    Pmf,
    TransportProblem,
    certify,
    solve_transport,
    vdist_halfsum,
    vertex_enumerate,
)

N = 5


def cost_of(tp: TransportProblem, c) -> Fraction:
    return sum((x * y for crow, jrow in zip(tp.cost, c.j) for x, y in zip(crow, jrow)), Fraction(0))


def check_vertex_oracle(tp: TransportProblem) -> Fraction:
    """Check the simplex against every vertex; return the least vertex cost."""
    coupling, cert, _ = solve_transport(tp)
    assert certify(coupling, cert, tp)
    vertices = vertex_enumerate(tp, max_size=N)
    assert min(cost_of(tp, v) for v in vertices) == cert.objective
    assert coupling in vertices
    return cert.objective


def test_ramp_against_uniform_reaches_the_variational_distance():
    alphabet = Alphabet.of_size(N)
    ramp = Pmf(alphabet, [Fraction(k, N * (N + 1) // 2) for k in range(1, N + 1)])
    uniform = Pmf.uniform(alphabet)
    assert check_vertex_oracle(TransportProblem.mismatch(ramp, uniform)) == vdist_halfsum(ramp, uniform)


def test_random_integer_costs():
    rng = random.Random(2015)
    alphabet = Alphabet.of_size(N)

    def marginal() -> Pmf:
        weights = [rng.randint(1, 30) for _ in range(N)]
        return Pmf(alphabet, [Fraction(w, sum(weights)) for w in weights])

    cost = [[Fraction(rng.randint(0, 99)) for _ in range(N)] for _ in range(N)]
    check_vertex_oracle(TransportProblem(marginal(), marginal(), cost))
