"""The integer validators against their Fraction references.

``Pmf`` validation, ``Coupling`` (from Fractions and from ints),
``couplingkit verify``, ``certify`` and the key audit
(``maximal_diagonal``, ``mismatch_certificate``,
``certify_mismatch_coupling`` and ``epsilon_audit``) run on ints over a
common denominator, and the independent and maximal coupling builders
form each cell already reduced;
:mod:`tests.fraction_reference` keeps the direct Fraction forms.  Both
must reach the same verdict, fail on the same first constraint and say
the same thing, on valid inputs and on inputs broken by one small change.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pytest

from couplingkit import (
    Alphabet,
    Coupling,
    DualCertificate,
    EpsilonAuditInput,
    Pmf,
    Pmf2,
    TransportProblem,
    certify,
    coupling_independent,
    coupling_maximal,
    epsilon_audit,
    lemma_audit,
    maximal_diagonal,
    mismatch_certificate,
    vdist_halfsum,
)
from couplingkit import cli
from couplingkit.coupling import check_maximal
from couplingkit.distributions import lcm_of, scaled
from couplingkit.errors import CorruptedCouplingError, CouplingKitError, DistributionError
from couplingkit.jsonio import coupling4_to_obj, coupling_to_obj
from couplingkit.multidim import coupling4_maximal
from couplingkit.rational import decimal_string
from couplingkit.transport import certify_mismatch_coupling

from . import fraction_reference as reference
from .fraction_reference import common_denominator
from .test_coupling import unchecked_pmf
from .test_transport import COPRIME_DENOMINATORS

F = Fraction
EPS = F(1, 10**30)
# Its denominator has about 4771 digits, past the default int-to-str limit.
HUGE = F(1, 3**10000)


def outcome(call):
    """What ``call()`` returned, or which error it raised saying what."""
    try:
        return call()
    except CouplingKitError as exc:
        return type(exc).__name__, getattr(exc, "constraint", None), getattr(exc, "symbol", None), str(exc)


def random_marginal(rng: random.Random, n: int, denominators: str) -> Pmf:
    """A distribution whose entries share small denominators, or have coprime ~108-bit
    or all-distinct 64-bit ones, or 2-, 3- and 5-smooth numerators and denominators,
    or a point mass."""
    if denominators == "point":
        return Pmf.point_mass(Alphabet.of_size(n), str(rng.randint(1, n)))
    if denominators == "distinct":
        # N - 1 entries over distinct odd 64-bit denominators, each at most
        # 1/(2N); the last entry takes the rest, over their lcm.
        dens = set()
        while len(dens) < n - 1:
            dens.add(rng.getrandbits(64) | 2**63 | 1)
        head = [F(rng.randrange(1, d // (2 * n)), d) for d in sorted(dens)]
        rng.shuffle(head)
        return Pmf(Alphabet.of_size(n), (*head, 1 - sum(head, F(0))))
    if denominators == "coprime":
        # Up to eight entries over coprime ~108-bit denominators, the others
        # over 4n, each at most 1/(2n); the last entry takes the rest, so
        # its denominator is their product.
        head = [F(rng.randrange(d // (2 * n)), d) for d in COPRIME_DENOMINATORS[: min(n - 1, 8)]]
        head += [F(rng.randrange(3), 4 * n) for _ in range(n - 1 - len(head))]
        rng.shuffle(head)
        return Pmf(Alphabet.of_size(n), (*head, 1 - sum(head, F(0))))
    if denominators == "smooth":
        # Weights 2^i 3^j 5^k over a total that 900 divides: one side's
        # numerators share the primes 2, 3 and 5 with the other's
        # denominators, so the builders' gcds are mostly not 1.
        weights = [2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2) * 5 ** rng.randint(0, 2)
                   for _ in range(n)]
        weights[-1] += -sum(weights) % 900
    else:
        weights = [rng.choice((0, rng.randint(1, 40))) for _ in range(n)]
        weights[rng.randrange(n)] += 1
    total = sum(weights)
    return Pmf(Alphabet.of_size(n), tuple(F(w, total) for w in weights))


def random_coupling(rng: random.Random, p: Pmf, q: Pmf) -> Coupling:
    kind = rng.choice(("maximal", "independent", "mix"))
    if kind == "maximal":
        return coupling_maximal(p, q)
    if kind == "independent":
        return coupling_independent(p, q)
    w = F(rng.randint(1, 9), 10)
    rows = tuple(
        tuple(w * x + (1 - w) * y for x, y in zip(xs, ys))
        for xs, ys in zip(coupling_independent(p, q).j, coupling_maximal(p, q).j)
    )
    return Coupling(rows, p, q)


def moved(pmf: Pmf, rng: random.Random, amount: Fraction) -> Pmf:
    """``pmf`` with ``amount`` moved from its largest entry to another symbol."""
    n = len(pmf.p)
    src = max(range(n), key=pmf.p.__getitem__)
    dst = rng.choice([k for k in range(n) if k != src] or [src])
    entries = list(pmf.p)
    entries[src] -= amount
    entries[dst] += amount
    return Pmf(pmf.alphabet, entries)


MATRIX_CHANGES = (
    "none", "float", "int", "negative", "huge_negative", "total", "huge_total",
    "row", "column", "left", "right",
)


def changed_matrix(rng: random.Random, change: str, rows, p: Pmf, q: Pmf):
    """``rows`` and the marginals after one change; 'row' and 'column' keep the total."""
    n = len(rows)
    m = [list(row) for row in rows]
    i, j = rng.randrange(n), rng.randrange(n)
    other = (i + 1) % n
    sign = rng.choice((1, -1))
    if change == "float":
        m[i][j] = float(m[i][j])
    elif change == "int":
        m[i][j] = 0
    elif change == "negative":
        m[i][j] = -m[i][j] - EPS
    elif change == "huge_negative":
        m[i][j] = -HUGE
    elif change == "total":
        m[i][j] += sign * EPS
    elif change == "huge_total":
        m[i][j] += HUGE
    elif change == "row":  # rows i and other move, every column keeps its sum
        m[i][j] += sign * EPS
        m[other][j] -= sign * EPS
    elif change == "column":  # columns j and other move, every row keeps its sum
        m[i][j] += sign * EPS
        m[i][other] -= sign * EPS
    elif change == "left":
        p = moved(p, rng, EPS)
    elif change == "right":
        q = moved(q, rng, EPS)
    return m, p, q


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32),
    denominators=st.sampled_from(("shared", "coprime")),
    change=st.sampled_from(MATRIX_CHANGES),
)
def test_coupling_and_check_mass_match_the_fraction_reference(n, seed, denominators, change):
    rng = random.Random(seed)
    p = random_marginal(rng, n, denominators)
    q = random_marginal(rng, n, denominators)
    rows = random_coupling(rng, p, q).j
    m, p, q = changed_matrix(rng, change, rows, p, q)

    expected = outcome(lambda: reference.validate_coupling(m, p, q))
    assert outcome(lambda: Coupling(m, p, q).j) == expected
    if change == "none":
        assert expected == rows
    if all(type(x) is Fraction for row in m for x in row):
        # The int entry point, each pair unreduced by a factor of its own
        def unreduced(x):
            k = rng.randint(1, 6)
            return x.numerator * k, x.denominator * k

        ratios = [(range(len(row)), [unreduced(x) for x in row]) for row in m]
        assert outcome(lambda: Coupling.over(ratios, p, q).j) == expected
        if change == "none":
            assert Coupling.over(ratios, p, q) == Coupling(m, p, q)

    # Pmf runs the same one check on the cells as one distribution, D its result
    flat = [x for row in m for x in row]
    alphabet = Alphabet.of_size(len(flat))

    def error(message, constraint):
        return DistributionError(message)

    def label(k):
        return f"p({alphabet.symbols[k]})"

    assert outcome(lambda: Pmf(alphabet, flat)._scaled[0]) == outcome(
        lambda: reference.check_mass(flat, label, error)
    )


CERTIFICATE_CHANGES = (
    "none", "u_up", "u_down", "v_up", "v_down", "objective_up", "objective_down",
    "cost", "coupling", "supply", "shape",
)


def small_fraction(rng: random.Random) -> Fraction:
    return F(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 7, 12)))


def exact(value: Fraction, rng: random.Random):
    """``value``, as an int when it is one and the coin says so."""
    return int(value) if value.denominator == 1 and rng.random() < 0.5 else value


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32),
    denominators=st.sampled_from(("shared", "coprime")),
    change=st.sampled_from(CERTIFICATE_CHANGES),
)
def test_certify_matches_the_fraction_reference(n, seed, denominators, change):
    # An optimal pair by construction: cost = u_i + v_j + slack, with zero
    # slack wherever the coupling has mass (complementary slackness).
    rng = random.Random(seed)
    p = random_marginal(rng, n, denominators)
    q = random_marginal(rng, n, denominators)
    c = random_coupling(rng, p, q)
    u = [small_fraction(rng) for _ in range(n)]
    v = [small_fraction(rng) for _ in range(n)]
    cost = [
        [
            exact(u[i] + v[j] + (0 if c.j[i][j] else F(rng.randint(0, 5), rng.choice((1, 4)))), rng)
            for j in range(n)
        ]
        for i in range(n)
    ]
    objective = sum(map(F.__mul__, u, p.p), F(0)) + sum(map(F.__mul__, v, q.p), F(0))
    supply = p
    k = rng.randrange(n)
    if change == "u_up":
        u[k] += EPS
    elif change == "u_down":
        u[k] -= EPS
    elif change == "v_up":
        v[k] += EPS
    elif change == "v_down":
        v[k] -= EPS
    elif change == "objective_up":
        objective += EPS
    elif change == "objective_down":
        objective -= EPS
    elif change == "cost":
        i, j = max(((i, j) for i in range(n) for j in range(n)), key=lambda ij: c.j[ij[0]][ij[1]])
        cost[i][j] -= EPS
    elif change == "coupling":
        c = random_coupling(rng, p, q)
    elif change == "supply":
        supply = moved(p, rng, EPS)
    elif change == "shape":
        u.append(F(0))
    cert = DualCertificate(u=tuple(exact(x, rng) for x in u), v=tuple(v), objective=objective)
    tp = TransportProblem(supply, q, cost)

    expected = outcome(lambda: reference.certify(c, cert, tp))
    assert outcome(lambda: certify(c, cert, tp)) == expected
    if change == "none":
        assert expected is True


def test_common_denominator_is_the_lcm():
    rng = random.Random(3)
    for size in (0, 1, 2, 3, 5, 8, 33):
        values = [F(1, rng.randint(1, 2**64)) for _ in range(size)] + [F(2, 3), F(5, 3)]
        assert common_denominator(values) == math.lcm(*(x.denominator for x in values))
        assert lcm_of({x.denominator for x in values}) == common_denominator(values)
    assert common_denominator([]) == 1


def test_validation_memory_with_distinct_denominators(tmp_path):
    """Validating and reading a coupling whose 1024 entries all have distinct denominators stays small.

    Entry (i, j) is 1/1024 plus +-1/q for each of the (up to four) 2 x 2
    windows covering it, one prime q of 14 bits per window, with signs
    + - / - + in each window.  Rows and columns keep 1/32 each, so every
    check runs, while D, the lcm of all 1024 entry denominators (each about
    64 bits), has over 13000 bits: an array of N^2 ints scaled by D would
    take about 1.7 MB.  The bound covers building the coupling from
    Fractions and auditing it, and ``verify`` on the same matrix as a file.
    """
    n = 32
    primes = [x for x in range(2**13, 2**15) if all(x % d for d in range(2, math.isqrt(x) + 1))]
    m = [[F(1, n * n)] * n for _ in range(n)]
    for w, (i, j) in enumerate((i, j) for i in range(n - 1) for j in range(n - 1)):
        e = F(1, primes[w])
        m[i][j] += e
        m[i][j + 1] -= e
        m[i + 1][j] -= e
        m[i + 1][j + 1] += e
    flat = [x for row in m for x in row]
    assert len({x.denominator for x in flat}) == n * n
    assert common_denominator(flat).bit_length() > 13000
    uniform = Pmf.uniform(Alphabet.of_size(n))
    paths = [tmp_path / "c.json", tmp_path / "u.json"]
    paths[0].write_text(json.dumps(coupling_to_obj(Coupling(m, uniform, uniform))), encoding="utf-8")
    marginal = {"alphabet": list(uniform.alphabet), "p": [str(x) for x in uniform.p]}
    paths[1].write_text(json.dumps(marginal), encoding="utf-8")
    verify = ["verify", *map(str, paths), str(paths[1])]

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: Coupling(m, uniform, uniform)) < 1_000_000
    assert peak(lambda: lemma_audit(Coupling(m, uniform, uniform))) < 1_000_000
    assert peak(lambda: _run_cli(verify)) < 1_000_000
    assert _run_cli(verify)[0] == 0


KEYS = ("shared", "coprime", "distinct", "smooth", "point")
PMF_CHANGES = ("none", "negative", "total", "double", "half")


def changed_pmf(rng: random.Random, change: str, pmf: Pmf) -> Pmf:
    """``pmf``, or an unvalidated copy with one entry or every entry changed."""
    if change == "none":
        return pmf
    entries = list(pmf.p)
    k = rng.randrange(len(entries))
    if change == "negative":
        entries[k] = -entries[k] - EPS
    elif change == "total":
        entries[k] += EPS
    elif change == "double":
        entries = [2 * x for x in entries]
    elif change == "half":
        entries = [x / 2 for x in entries]
    return unchecked_pmf(entries)


def changed_certificate(rng: random.Random, change: str, cert: DualCertificate) -> DualCertificate:
    u, v, objective = list(cert.u), list(cert.v), cert.objective
    k = rng.randrange(len(u))
    if change == "u_up":
        u[k] += EPS
    elif change == "u_down":
        u[k] -= EPS
    elif change == "v_up":
        v[k] += EPS
    elif change == "v_down":
        v[k] -= EPS
    elif change == "objective_up":
        objective += EPS
    elif change == "objective_down":
        objective -= EPS
    elif change == "shape":
        u.append(F(0))
    return DualCertificate(u=tuple(u), v=tuple(v), objective=objective)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32),
    keys=st.tuples(st.sampled_from(KEYS), st.sampled_from(KEYS + ("same",))),
    change=st.sampled_from(PMF_CHANGES),
    side=st.sampled_from(("p", "q", "both")),
    cert_change=st.sampled_from(CERTIFICATE_CHANGES[:7] + ("shape",)),
)
def test_maximal_diagonal_and_certificate_match_the_fraction_reference(
    n, seed, keys, change, side, cert_change
):
    rng = random.Random(seed)
    p = random_marginal(rng, n, keys[0])
    q = p if keys[1] == "same" else random_marginal(rng, n, keys[1])
    # The certificate check reads a validated coupling, so the marginals before any change.
    maximal = coupling_maximal(p, q)
    if side != "q":
        p = changed_pmf(rng, change, p)
    if side != "p":
        q = changed_pmf(rng, change, q)

    expected = outcome(lambda: reference.maximal_diagonal(p, q))
    assert outcome(lambda: maximal_diagonal(p, q)) == expected
    assert mismatch_certificate(p, q) == reference.mismatch_certificate(p, q)

    p, q = maximal.left, maximal.right
    cert = changed_certificate(rng, cert_change, reference.mismatch_certificate(p, q))
    verdict = outcome(lambda: reference.certify_mismatch(maximal.diagonal(), cert, p, q))
    assert outcome(lambda: certify_mismatch_coupling(maximal, cert)) == verdict
    if cert_change in ("none", "objective_up", "objective_down"):
        assert verdict is (cert_change == "none")


def _clamped_v(pk: Pmf) -> Fraction:
    n = len(pk.p)
    return min(F(1), max(F(0), sum((abs(x - F(1, n)) for x in pk.p), F(0)) / 2))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32),
    key=st.sampled_from(KEYS),
    change=st.sampled_from(PMF_CHANGES),
    epsilon=st.sampled_from((None, F(0), F(1, 10), F(1, 2), F(1), "v")),
)
def test_epsilon_audit_matches_the_fraction_reference(n, seed, key, change, epsilon):
    rng = random.Random(seed)
    pk = changed_pmf(rng, change, random_marginal(rng, n, key))
    audit_input = EpsilonAuditInput(pk=pk, epsilon=_clamped_v(pk) if epsilon == "v" else epsilon)

    expected = outcome(lambda: reference.epsilon_audit(audit_input))
    assert outcome(lambda: epsilon_audit(audit_input)) == expected
    if change == "none":
        assert expected.v == expected.maximal_mismatch == expected.oracle_min_mismatch


BROKEN_MAXIMAL_INPUTS = [
    ((F(2, 3), F(2, 3)), (F(2, 3), F(2, 3)), "residual mass -1/3 is negative"),
    ((F(-1, 10), F(11, 10)), (F(1, 2), F(1, 2)), "negative factor at '1'"),
    ((F(1, 2), F(1)), (F(1, 2), F(1, 2)), "zero residual mass but P != Q"),
    ((F(1, 2), F(2, 5)), (F(1, 2), F(1, 2)), "total mass is not 1"),
    # disjoint supports with P(A) * Q(A) = 1: the total holds, the rows do not
    ((F(2), F(0)), (F(0), F(1, 2)), "row marginal at '1' is not P(1)"),
    ((F(0), F(1, 2)), (F(2), F(0)), "column marginal at '1' is not Q(1)"),
    # zero residual mass, yet rx(2) and ry(3) are both positive
    ((F(1, 2), F(1, 2), F(1, 4)), (F(1, 2), F(1, 4), F(1, 2)), "zero residual mass but P != Q"),
    # negative residual mass, yet rx(2) and ry(3) are both positive: a negative cell
    ((F(9, 10), F(9, 10), F(1, 10)), (F(9, 10), F(1, 2), F(1, 2)), "residual mass -1/2 is negative"),
    # a tie, where rx and ry are both 0, before the negative overlap
    ((F(5, 7), F(-1, 7)), (F(5, 7), F(3, 7)), "negative factor at '2'"),
]


@pytest.mark.parametrize("p,q,message", BROKEN_MAXIMAL_INPUTS)
def test_each_maximal_check_fails_as_in_the_fraction_reference(p, q, message):
    # rx * ry != 0 cannot fail on either side: rx and ry are P and Q less
    # their pointwise minimum, so one of them is 0 at every symbol.
    p, q = unchecked_pmf(p), unchecked_pmf(q)
    expected = outcome(lambda: reference.maximal_diagonal(p, q))
    assert expected[0] == "CorruptedCouplingError"
    assert expected[3] == f"maximal coupling: {message}"
    assert outcome(lambda: maximal_diagonal(p, q)) == expected


def test_check_maximal_passes_a_tie_before_a_negative_overlap():
    # At '1' both residuals are 0; only the overlap at '2' is negative.
    with pytest.raises(CorruptedCouplingError, match=r"^maximal coupling: negative factor at '2'$"):
        check_maximal([5, -1], [5, 3], 7, ("1", "2"))


broken_entries = st.fractions(min_value=-1, max_value=2, max_denominator=12)
# A few values drawn often, so zeros, ties and repeated entries are common.
pooled_entries = st.one_of(st.sampled_from([F(0), F(1, 2), F(1, 3), F(1), F(-1, 6)]), broken_entries)


def skewed_residuals(xs, ys, skew):
    """``xs`` and ``ys`` with their residuals over min(xs, ys) rescaled to total ``skew * m`` and ``m / skew``.

    m is 1 less the overlap, so the total mass of the maximal coupling
    holds, and unless ``skew`` is 1 its marginals do not.  Left as they
    are when m or a residual total is not positive.
    """
    overlap = [min(x, y) for x, y in zip(xs, ys)]
    m = 1 - sum(overlap, F(0))
    sx, sy = sum(xs, F(0)) - sum(overlap, F(0)), sum(ys, F(0)) - sum(overlap, F(0))
    if m <= 0 or not sx or not sy:
        return xs, ys
    return ([d + (x - d) * skew * m / sx for x, d in zip(xs, overlap)],
            [d + (y - d) * m / (skew * sy) for y, d in zip(ys, overlap)])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(
        st.lists(pooled_entries, min_size=n, max_size=n),
        st.lists(pooled_entries, min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
    )),
    st.sampled_from(("none", "p", "q", "both", "skewed")),
    st.sampled_from((F(1), F(2), F(1, 3))),
)
def test_maximal_diagonal_of_unvalidated_pmfs_matches_the_fraction_reference(entries, normalised, skew):
    # Ties copy P's entry into Q.  Scaling a side to total 1 (negative
    # entries and all) lets the checks after the total run; the marginal
    # checks need non-negative entries and skewed residuals.
    xs, ys, ties = entries
    ys = [x if tie else y for x, y, tie in zip(xs, ys, ties)]
    if normalised == "skewed":
        xs, ys = [abs(x) for x in xs], [abs(y) for y in ys]
    if normalised in ("p", "both", "skewed") and sum(xs):
        xs = [x / sum(xs, F(0)) for x in xs]
    if normalised in ("q", "both", "skewed") and sum(ys):
        ys = [y / sum(ys, F(0)) for y in ys]
    if normalised == "skewed":
        xs, ys = skewed_residuals(xs, ys, skew)
    p, q = unchecked_pmf(xs), unchecked_pmf(ys)
    assert outcome(lambda: maximal_diagonal(p, q)) == outcome(lambda: reference.maximal_diagonal(p, q))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(*[st.lists(broken_entries, min_size=n, max_size=n)] * 2)
))
def test_unvalidated_pmfs_fail_as_the_fraction_reference(pair):
    # An unvalidated copy keeps no ints: it scales its entries when first read, as scaled() does.
    p, q = map(unchecked_pmf, pair)
    assert "_scaled" not in vars(p)
    assert outcome(lambda: vdist_halfsum(p, q)) == sum((abs(x - y) for x, y in zip(*pair)), F(0)) / 2
    assert outcome(lambda: maximal_diagonal(p, q)) == outcome(lambda: reference.maximal_diagonal(p, q))
    assert outcome(lambda: mismatch_certificate(p, q)) == outcome(lambda: reference.mismatch_certificate(p, q))
    for build, rows in ((coupling_maximal, reference.coupling_maximal_rows),
                        (coupling_independent, reference.coupling_independent_rows)):
        assert outcome(lambda: build(p, q).j) == outcome(lambda: Coupling(rows(p, q), p, q).j)
    assert p._scaled == scaled(p.p) and q._scaled == scaled(q.p)


def diagonal_and_band(rng: random.Random, side: int) -> tuple[Pmf, Pmf]:
    """A diagonal P2 and a band Q2 (|i - j| <= 1), both with zero weights, flattened."""

    def pmf2(allowed) -> Pmf:
        weights = [[rng.choice((0, rng.randint(1, 40))) if allowed(i, j) else 0
                    for j in range(side)] for i in range(side)]
        weights[0][0] += 1
        total = sum(map(sum, weights))
        return Pmf2(Alphabet.of_size(side), [[F(w, total) for w in row] for row in weights]).flatten()

    return pmf2(lambda i, j: i == j), pmf2(lambda i, j: abs(i - j) <= 1)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=2**32),
    pair=st.sampled_from(KEYS + ("equal", "diagonal_band")),
)
def test_coupling_maximal_matches_the_fraction_reference(n, seed, pair):
    rng = random.Random(seed)
    if pair == "diagonal_band":
        p, q = diagonal_and_band(rng, 1 + n % 5)
    elif pair == "equal":  # zero residual mass
        p = q = random_marginal(rng, n, rng.choice(KEYS))
    else:  # "shared" draws zero entries, "point" is mostly zeros
        p = random_marginal(rng, n, pair)
        q = random_marginal(rng, n, rng.choice(KEYS))
    c = coupling_maximal(p, q)
    assert_reduced(c)
    assert c.j == reference.coupling_maximal_rows(p, q)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=2**32),
    kinds=st.tuples(st.sampled_from(KEYS), st.sampled_from(KEYS)),
)
def test_coupling_independent_matches_the_fraction_reference(n, seed, kinds):
    rng = random.Random(seed)
    p, q = (random_marginal(rng, n, kind) for kind in kinds)
    c = coupling_independent(p, q)
    assert_reduced(c)
    assert c.j == reference.coupling_independent_rows(p, q)


def assert_reduced(c: Coupling) -> None:
    """Every cell a builder handed over is an int pair in lowest terms over a positive denominator.

    These are the raw pairs the coupling-file writer reads, not ``j``: a
    Fraction built from an unreduced pair could hide it by reducing.
    """
    assert c._coprime
    for _, pairs in c._pairs():
        for x, d in pairs:
            assert type(x) is int and type(d) is int
            assert d > 0 and math.gcd(x, d) == 1, (x, d)


@pytest.mark.parametrize("p,q,message", BROKEN_MAXIMAL_INPUTS)
def test_coupling_maximal_fails_on_broken_inputs_as_the_fraction_reference(p, q, message):
    # The builder runs no maximal check of its own: dense validation rejects
    # what it builds, negative cells (residual mass below 0) included.
    p, q = unchecked_pmf(p), unchecked_pmf(q)
    expected = outcome(lambda: Coupling(reference.coupling_maximal_rows(p, q), p, q).j)
    assert expected[0] == "CouplingError"
    assert outcome(lambda: coupling_maximal(p, q).j) == expected
    if message == "residual mass -1/2 is negative":
        assert expected[1:] == ("negative_entry", None, "entry (2,3) is negative: -8/25")


def test_builders_run_full_size_gcds_per_row_and_column_not_per_cell(monkeypatch):
    # P and Q over one prime, so no numerator shares a factor with a
    # denominator.  The residual mass is m / prime for the prime m = 65537,
    # and every ry(b) lies below m, so gcd(ry(b), m * prime) == 1 as well.
    n, prime, m = 32, 2**61 - 1, 65537
    half = [4096] * 15 + [m - 15 * 4096]
    rx, ry = half + [0] * 16, [0] * 16 + half
    overlap = [(prime - m) // n] * n
    overlap[0] += prime - m - sum(overlap)
    p = Pmf(Alphabet.of_size(n), [F(o + x, prime) for o, x in zip(overlap, rx)])
    q = Pmf(Alphabet.of_size(n), [F(o + y, prime) for o, y in zip(overlap, ry)])
    references = {coupling_independent: reference.coupling_independent_rows(p, q),
                  coupling_maximal: reference.coupling_maximal_rows(p, q)}
    gcd = math.gcd
    calls = []

    def counting_gcd(*args):
        calls.append(args)
        return gcd(*args)

    counts, built = {}, {}
    with monkeypatch.context() as patch:
        # fractions reads math.gcd at call time; the builders use their own binding.
        patch.setattr(math, "gcd", counting_gcd)
        patch.setattr("couplingkit.coupling.gcd", counting_gcd, raising=False)
        for build in references:
            calls.clear()
            built[build] = build(p, q)
            built[build].j
            counts[build.__name__] = len(calls)
    assert all(count <= 2 * n + 8 for count in counts.values()), counts
    for build, rows in references.items():
        assert built[build].j == rows


def test_epsilon_audit_reports_a_v_past_the_int_to_str_limit():
    # v has over 4300 digits, and epsilon = 0 puts it in a note
    pk = random_marginal(random.Random(256), 256, "distinct")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        report = epsilon_audit(EpsilonAuditInput(pk=pk, epsilon=F(0)))
        with pytest.raises(ValueError):
            str(report.v)
    finally:
        sys.set_int_max_str_digits(limit)
    assert report.epsilon_consistent is False
    bits = report.v.denominator.bit_length()
    assert report.notes[-1] == (
        f"claimed bound epsilon = 0 is below v = <a rational over a {bits}-bit denominator>; "
        "the input is inconsistent with v <= epsilon"
    )


def test_audit_report_with_distinct_64_bit_denominators_at_n256():
    rng = random.Random(256)
    pk = random_marginal(rng, 256, "distinct")
    assert len({x.denominator for x in pk.p}) == 256
    assert common_denominator(pk.p).bit_length() > 10000
    # v has over 4300 digits, and epsilon = 0 puts it in a note
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for epsilon in (None, F(0), F(1, 2), F(1)):
            audit_input = EpsilonAuditInput(pk=pk, epsilon=epsilon)
            assert epsilon_audit(audit_input) == reference.epsilon_audit(audit_input)
    finally:
        sys.set_int_max_str_digits(limit)


def _literal(x: Fraction, form: str) -> str:
    """``x`` written as a coupling-file literal of the given form."""
    if form == "unreduced":
        return f"{3 * x.numerator}/{3 * x.denominator}"
    if form == "decimal" and 10**6 % x.denominator == 0:
        return decimal_string(x, 6)
    if form == "padded":
        return f" {x} "
    return str(x)


def _run_cli(argv, verify=None):
    """Exit code, stdout and stderr of ``cli.main(argv)``, with ``verify`` as the verify command."""
    out, err = io.StringIO(), io.StringIO()
    original = cli.cmd_verify
    if verify is not None:
        cli.cmd_verify = verify
        cli.build_parser.cache_clear()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        if verify is not None:
            cli.cmd_verify = original
            cli.build_parser.cache_clear()
    return code, out.getvalue(), err.getvalue()


VERIFY_CHANGES = ("none", "none", "negative", "total", "row", "column")


@settings(max_examples=80, deadline=None)
@given(
    dim=st.sampled_from((1, 2)),
    n=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32),
    change=st.sampled_from(VERIFY_CHANGES),
    form=st.sampled_from(("canonical", "unreduced", "decimal", "padded", "mixed")),
    options=st.sampled_from((["--format", "table"], ["--format", "json"], ["--precision", "8"])),
)
def test_verify_prints_what_the_fraction_path_prints(dim, n, seed, change, form, options):
    m = n**dim
    assume(m > 1 or change not in ("row", "column"))
    rng = random.Random(seed)
    weights = [[rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(m)] for _ in range(m)]
    weights[rng.randrange(m)][rng.randrange(m)] += 1
    total = sum(map(sum, weights))
    cells = [[F(w, total) for w in row] for row in weights]
    p = [sum(row, F(0)) for row in cells]
    q = [sum(col, F(0)) for col in zip(*cells)]
    i, j = rng.randrange(m), rng.randrange(m)
    step = F(1, 13 * total)  # below every non-zero cell
    if change == "negative":
        cells[i][j] = -cells[i][j] - F(1, 7)
    elif change == "total":
        cells[i][j] += F(1, 11)
    elif change == "row":  # rows i and i + 1 move, every column keeps its sum
        cells[i][j] += step
        cells[(i + 1) % m][j] -= step
    elif change == "column":  # columns j and j + 1 move, every row keeps its sum
        cells[i][j] += step
        cells[i][(j + 1) % m] -= step
    forms = ("canonical", "unreduced", "decimal", "padded")
    text = [[_literal(x, rng.choice(forms) if form == "mixed" else form) for x in row] for row in cells]
    symbols = [str(k) for k in range(1, n + 1)]
    if dim == 1:
        coupling = {"alphabet": symbols, "matrix": text}
        marginals = [{"alphabet": symbols, "p": [str(x) for x in r]} for r in (p, q)]
    else:
        blocks = {
            f"({a},{b})": {c: text[x1 * n + x2][y1 * n : (y1 + 1) * n] for y1, c in enumerate(symbols)}
            for x1, a in enumerate(symbols)
            for x2, b in enumerate(symbols)
        }
        coupling = {"alphabet": symbols, "blocks": blocks}
        marginals = [
            {"alphabet": symbols, "matrix": [[str(x) for x in r[k * n : (k + 1) * n]] for k in range(n)]}
            for r in (p, q)
        ]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, body in zip("cpq", (coupling, *marginals)):
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(body), encoding="utf-8")
            paths.append(str(path))
        argv = ["verify", *paths, *options]
        expected = _run_cli(argv, verify=reference.cmd_verify)
        assert _run_cli(argv) == expected
    if change == "none":
        assert expected[0] == 0


@pytest.mark.parametrize("dim", [1, 2])
def test_verify_never_builds_the_fraction_matrix(monkeypatch, dim, ramp, uniform4, diag3, band3, tmp_path):
    if dim == 1:
        coupling = coupling_to_obj(coupling_maximal(ramp, uniform4))
        marginals = [{"alphabet": list(x.alphabet), "p": [str(v) for v in x.p]} for x in (ramp, uniform4)]
    else:
        coupling = coupling4_to_obj(coupling4_maximal(diag3, band3))
        marginals = [
            {"alphabet": list(x.alphabet), "matrix": [[str(v) for v in row] for row in x.p]}
            for x in (diag3, band3)
        ]
    paths = []
    for name, body in zip("cpq", (coupling, *marginals)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        paths.append(str(path))
    expected = _run_cli(["verify", *paths])
    assert expected[0] == 0

    def unread(self):
        raise AssertionError("verify read Coupling.j")

    monkeypatch.setattr(Coupling, "j", property(unread))
    assert _run_cli(["verify", *paths]) == expected
