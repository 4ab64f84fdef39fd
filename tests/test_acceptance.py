"""Acceptance suite.

Each test covers one release criterion at exact-arithmetic tolerance
(no epsilons anywhere) and prints one machine-greppable pass/fail line.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from couplingkit import (
    Coupling,
    TransportProblem,
    certify,
    coupling4_constrained,
    coupling4_independent,
    coupling4_maximal,
    coupling_independent,
    coupling_maximal,
    example4_report,
    lp_min_mismatch,
    mismatch_components,
    mismatch_prob,
    vdist2,
    vdist_halfsum,
    vdist_subset,
    vertex_enumerate,
)
from couplingkit.tables import generate_fixtures, packaged_fixtures_dir, sync_fixtures

from .conftest import GENERIC_COUPLING, random_coupling, random_pmf
from .test_coupling import INDEPENDENT_MATRIX, MAXIMAL_MATRIX
from .test_multidim import (
    CONSTRAINED4_NONZERO,
    INDEPENDENT4_NONZERO,
    MAXIMAL4_NONZERO,
    assert_matches_golden,
)

F = Fraction


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


def test_criterion_1_one_dim_worked_example(ramp, uniform4):
    with criterion(1, "4-symbol worked example reproduced exactly, < 1 s"):
        start = time.perf_counter()
        assert vdist_halfsum(ramp, uniform4) == F(1, 5)
        independent = coupling_independent(ramp, uniform4)
        assert independent.j == INDEPENDENT_MATRIX
        assert mismatch_prob(independent) == F(3, 4)
        maximal = coupling_maximal(ramp, uniform4)
        assert maximal.j == MAXIMAL_MATRIX  # all 16 rationals
        assert maximal.j[3][0] == F(9, 80)
        assert mismatch_prob(maximal) == F(1, 5)
        generic = Coupling(GENERIC_COUPLING, ramp, uniform4)
        assert mismatch_prob(generic) == F(19, 40)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_two_dim_worked_example(diag3, band3):
    with criterion(2, "3-symbol two-dim worked example reproduced exactly, < 1 s"):
        start = time.perf_counter()
        assert vdist2(diag3, band3) == F(5, 9)
        maximal = coupling4_maximal(diag3, band3)
        assert_matches_golden(maximal, MAXIMAL4_NONZERO)  # all 81 entries
        assert mismatch_components(maximal).pair_mismatch == F(5, 9)
        constrained = coupling4_constrained(diag3, band3)
        assert_matches_golden(constrained, CONSTRAINED4_NONZERO)
        parts = mismatch_components(constrained)
        assert parts.pair_mismatch == parts.coord_mismatch == F(5, 9)
        independent = coupling4_independent(diag3, band3)
        assert_matches_golden(independent, INDEPENDENT4_NONZERO)
        assert mismatch_components(independent).pair_mismatch == F(23, 27)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_uniform_key_closed_form():
    with criterion(3, "uniform keys: v = 0 and independent mismatch = 1 - 1/N"):
        for n in (2, 3, 4, 16, 256):
            report = example4_report(n)
            assert report.v == F(0)
            assert report.independent_mismatch == 1 - F(1, n)
            assert report.maximal_mismatch == F(0)


def test_criterion_4_oracle_agreement():
    with criterion(4, "1000 random pairs, N <= 6: LP = v, certified, matches construction, < 60 s"):
        rng = random.Random(160493)
        start = time.perf_counter()
        for _ in range(1000):
            n = rng.randint(1, 6)
            p = random_pmf(rng, n)
            q = random_pmf(rng, n)
            coupling, cert = lp_min_mismatch(p, q)
            v = vdist_halfsum(p, q)
            assert cert.objective == v
            problem = TransportProblem.mismatch(p, q)
            assert certify(coupling, cert, problem)
            assert mismatch_prob(coupling_maximal(p, q)) == cert.objective
        assert time.perf_counter() - start < 60.0


def test_criterion_5_inequality_over_polytope():
    with criterion(5, "500+ couplings (all vertices N <= 4, convex mixes N <= 8): v <= mismatch"):
        rng = random.Random(271828)
        checked = 0
        violations = 0

        def check(p, q, c):
            nonlocal checked, violations
            if vdist_halfsum(p, q) > mismatch_prob(c):
                violations += 1
            checked += 1

        while checked < 350:
            n = rng.randint(2, 4)
            p = random_pmf(rng, n)
            q = random_pmf(rng, n)
            for vertex in vertex_enumerate(TransportProblem.mismatch(p, q)):
                check(p, q, vertex)
        for _ in range(200):
            n = rng.randint(1, 8)
            p = random_pmf(rng, n)
            q = random_pmf(rng, n)
            check(p, q, random_coupling(rng, p, q))
        assert checked >= 500
        assert violations == 0


def test_criterion_6_strict_gap_for_interior_pairs():
    with criterion(6, "500 random interior pairs: v < independent mismatch strictly"):
        rng = random.Random(314159)
        for _ in range(500):
            n = rng.randint(2, 8)
            p = random_pmf(rng, n, interior=True)
            q = random_pmf(rng, n, interior=True)
            assert vdist_halfsum(p, q) < mismatch_prob(coupling_independent(p, q))


def test_criterion_7_definition_equivalence():
    with criterion(7, "200 random pairs, N <= 12: subset maximization = half L1 sum"):
        rng = random.Random(602214)
        for i in range(200):
            n = 12 if i % 25 == 0 else rng.randint(1, 12)
            p = random_pmf(rng, n)
            q = random_pmf(rng, n)
            assert vdist_subset(p, q) == vdist_halfsum(p, q)


def test_criterion_8_golden_stability(tmp_path):
    with criterion(8, "golden tables regenerate byte-identically and match committed files"):
        first = generate_fixtures()
        second = generate_fixtures()
        assert first == second
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert {r.status for r in sync_fixtures(dir_a)} == {"created"}
        assert {r.status for r in sync_fixtures(dir_b)} == {"created"}
        for name, content in first.items():
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
            assert (dir_a / name).read_text(encoding="utf-8") == content
            committed = (packaged_fixtures_dir() / name).read_text(encoding="utf-8")
            assert committed == content
        assert {r.status for r in sync_fixtures(dir_a)} == {"ok"}
