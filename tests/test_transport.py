import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplingkit import (
    Alphabet,
    BasisTree,
    CorruptedCouplingError,
    DualCertificate,
    EnumerationLimitError,
    Pmf,
    ShapeMismatchError,
    TransportProblem,
    certify,
    coupling_maximal,
    lp_min_mismatch,
    mismatch_certificate,
    mismatch_prob,
    solve_transport,
    vdist_halfsum,
    vertex_enumerate,
)

import couplingkit.transport as transport_module
from couplingkit.transport import certify_mismatch_coupling

from . import fraction_reference as reference
from .conftest import pmf_pairs, random_cost, random_pmf

F = Fraction

# Pairwise coprime denominators and their products, so that the lcm the
# solver scales costs by differs from every single denominator.
COST_DENOMINATORS = (1, 2, 3, 5, 7, 6, 35, 11)


def fractional_cost(rng: random.Random, n: int):
    return tuple(
        tuple(F(rng.randint(-40, 40), rng.choice(COST_DENOMINATORS)) for _ in range(n))
        for _ in range(n)
    )


@st.composite
def fractional_problems(draw, max_n: int = 4):
    """Marginals with zero entries and negative costs over mixed denominators."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    alphabet = Alphabet.of_size(n)

    def pmf() -> Pmf:
        weights = draw(
            st.lists(st.integers(min_value=0, max_value=6), min_size=n, max_size=n).filter(
                lambda ws: sum(ws) > 0
            )
        )
        return Pmf(alphabet, tuple(F(w, sum(weights)) for w in weights))

    entry = st.builds(
        F, st.integers(min_value=-20, max_value=20), st.sampled_from(COST_DENOMINATORS)
    )
    cost = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return TransportProblem(pmf(), pmf(), cost)


# i * 30! + 1 for i = 1..30 are pairwise coprime (a common prime factor
# of two of them would divide (j - i) * 30!, whose primes are all <= 30)
# and about 108 bits each, so the lcm D of a few is hundreds of bits.
COPRIME_DENOMINATORS = tuple(i * math.factorial(30) + 1 for i in range(1, 31))


@st.composite
def coprime_problems(draw, n: int):
    """Marginals over pairwise-coprime ~108-bit denominators, fractional costs.

    Each marginal takes N - 1 of the denominators, none shared with the
    other; its last entry is what the others leave of 1.
    """
    denominators = iter(draw(st.permutations(COPRIME_DENOMINATORS)))
    alphabet = Alphabet.of_size(n)

    def pmf() -> Pmf:
        weights = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=n, max_size=n))
        total = sum(weights) + 1
        head = [F(w * b // total, b) for w, b in zip(weights[:-1], denominators)]
        return Pmf(alphabet, (*head, 1 - sum(head, F(0))))

    entry = st.builds(
        F, st.integers(min_value=-20, max_value=20), st.sampled_from(COST_DENOMINATORS)
    )
    cost = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return TransportProblem(pmf(), pmf(), cost)


def tied_pairs(rng: random.Random, count: int) -> list[tuple[Pmf, Pmf]]:
    """Marginal pairs that tie at many symbols, zeros included.

    Q is P's small integer weights with a few units moved between
    symbols, none moved giving P = Q; every third Q is then permuted.
    """
    pairs = []
    for k in range(count):
        n = rng.randint(1, 7)
        weights = [rng.randint(0, 3) for _ in range(n)]
        weights[rng.randrange(n)] += 1
        moved = list(weights)
        for _ in range(rng.randint(0, n)):
            i = rng.choice([i for i, w in enumerate(moved) if w])
            moved[i] -= 1
            moved[rng.randrange(n)] += 1
        if k % 3 == 2:
            rng.shuffle(moved)
        total = sum(weights)
        alphabet = Alphabet.of_size(n)
        pairs.append(tuple(Pmf(alphabet, tuple(F(w, total) for w in ws)) for ws in (weights, moved)))
    return pairs


def solver_digest(problems) -> str:
    """sha256 of the coupling, certificate and basis that the simplex returns for each problem."""
    outputs = []
    for tp in problems:
        coupling, cert, basis = solve_transport(tp)
        outputs.append((coupling.j, cert, basis.cells))
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def assert_certificate(tp: TransportProblem, coupling, cert: DualCertificate):
    assert certify(coupling, cert, tp)
    assert reference.objective(tp, coupling) == cert.objective


def degenerate_problems() -> list[TransportProblem]:
    """80 problems on marginals that tie at many symbols, with costs 0-3: many tied optima and degenerate pivots."""
    rng = random.Random(1516)
    return [TransportProblem(p, q, random_cost(rng, len(p.p), max_cost=3)) for p, q in tied_pairs(rng, 80)]


def assert_optimal(problems) -> None:
    """Each solve is certified, and at desk scale its objective is the least over every vertex."""
    enumerated = 0
    for tp in problems:
        coupling, cert, _ = solve_transport(tp)
        assert_certificate(tp, coupling, cert)
        if len(tp.supply.p) <= transport_module.DEFAULT_VERTEX_LIMIT:
            assert cert.objective == min(reference.objective(tp, v) for v in vertex_enumerate(tp))
            enumerated += 1
    assert enumerated > 30


class TestProblemConstruction:
    def test_costs_are_scaled_to_ints_once(self, ramp, uniform4, monkeypatch):
        # every scaling helper the module calls, with the length of its input
        sizes = []
        for name in ("scaled",):

            def counted(*args, _original=getattr(transport_module, name)):
                values = list(args[-1])
                sizes.append(len(values))
                return _original(*args[:-1], values)

            monkeypatch.setattr(transport_module, name, counted)
        n = 4
        tp = TransportProblem(ramp, uniform4, fractional_cost(random.Random(5), n))
        coupling, cert, _ = solve_transport(tp)
        assert certify(coupling, cert, tp)
        assert sum(size >= n * n for size in sizes) == 1

    def test_mismatch_cost_matrix(self, ramp, uniform4):
        tp = TransportProblem.mismatch(ramp, uniform4)
        assert all(
            tp.cost[i][j] == (F(0) if i == j else F(1))
            for i in range(4)
            for j in range(4)
        )

    def test_wrong_cost_shape(self, ramp, uniform4):
        with pytest.raises(ShapeMismatchError):
            TransportProblem(ramp, uniform4, ((F(0),),))

    def test_float_cost_entry_rejected(self, ramp, uniform4):
        cost = [[F(1)] * 4 for _ in range(4)]
        cost[2][1] = 0.5
        with pytest.raises(ShapeMismatchError, match=r"cost entry \(3,2\) .* got float"):
            TransportProblem(ramp, uniform4, cost)

    def test_int_cost_entries_accepted(self, ramp, uniform4):
        ints = TransportProblem(ramp, uniform4, [[i * j for j in range(4)] for i in range(4)])
        fracs = TransportProblem(ramp, uniform4, [[F(i * j) for j in range(4)] for i in range(4)])
        assert solve_transport(ints) == solve_transport(fracs)


class TestSolve:
    def test_zero_cost_any_feasible_solution(self, ramp, uniform4):
        n = 4
        cost = tuple((F(0),) * n for _ in range(n))
        coupling, cert, basis = solve_transport(TransportProblem(ramp, uniform4, cost))
        assert cert.objective == F(0)
        assert len(basis.cells) == 2 * n - 1
        assert_certificate(TransportProblem(ramp, uniform4, cost), coupling, cert)

    def test_two_by_two_equal_marginals(self):
        u = Pmf.uniform(Alphabet.of_size(2))
        coupling, cert, _ = solve_transport(TransportProblem.mismatch(u, u))
        assert cert.objective == F(0)
        assert coupling.j == ((F(1, 2), F(0)), (F(0), F(1, 2)))

    def test_flattened_two_dim_pair(self, diag3, band3):
        tp = TransportProblem.mismatch(diag3.flatten(), band3.flatten())
        coupling, cert, basis = solve_transport(tp)
        assert cert.objective == F(5, 9)
        assert len(basis.cells) == 2 * 9 - 1
        assert_certificate(tp, coupling, cert)

    def test_single_symbol(self):
        one = Pmf(Alphabet(["k"]), (F(1),))
        coupling, cert, basis = solve_transport(TransportProblem.mismatch(one, one))
        assert coupling.j == ((F(1),),)
        assert cert.objective == F(0)
        assert basis.cells == ((0, 0),)

    def test_degenerate_sparse_instances_terminate(self):
        rng = random.Random(555)
        for _ in range(60):
            n = rng.randint(2, 6)
            # mostly zero supplies/demands to provoke degenerate pivots
            p = random_pmf(rng, n, max_weight=2)
            q = random_pmf(rng, n, max_weight=2)
            tp = TransportProblem(p, q, random_cost(rng, n))
            coupling, cert, _ = solve_transport(tp)
            assert_certificate(tp, coupling, cert)

    def test_point_masses_at_opposite_symbols(self):
        a = Alphabet.of_size(6)
        p = Pmf.point_mass(a, "1")
        q = Pmf.point_mass(a, "6")
        coupling, cert = lp_min_mismatch(p, q)
        assert cert.objective == F(1)
        assert coupling[("1", "6")] == F(1)

    def test_pivot_budget_exceeded_raises(self, ramp, uniform4, monkeypatch):
        tp = TransportProblem(ramp, uniform4, fractional_cost(random.Random(3), 4))
        monkeypatch.setattr(transport_module, "MAX_PIVOTS_PER_CELL", 0)
        with pytest.raises(CorruptedCouplingError, match="made 1 pivots, over its budget of 0"):
            solve_transport(tp)
        # an instance whose initial basis is optimal makes no pivot
        _, cert, _ = solve_transport(TransportProblem.mismatch(ramp, uniform4))
        assert cert.objective == F(1, 5)

    @settings(max_examples=50, deadline=None)
    @given(fractional_problems())
    def test_fractional_negative_costs_match_vertex_minimum(self, tp):
        coupling, cert, _ = solve_transport(tp)
        assert certify(coupling, cert, tp)
        assert cert.objective == reference.objective(tp, coupling)
        assert cert.objective == min(reference.objective(tp, v) for v in vertex_enumerate(tp))

    def test_fractional_costs_pivot_sequence_is_stable(self):
        # sha256 of the outputs of the Fraction-priced simplex this solver
        # replaced; any change in the pivot sequence changes the basis,
        # the coupling or the potentials
        rng = random.Random(2024)
        outputs = []
        for _ in range(20):
            p = random_pmf(rng, 8)
            q = random_pmf(rng, 8)
            coupling, cert, basis = solve_transport(TransportProblem(p, q, fractional_cost(rng, 8)))
            outputs.append((coupling.j, cert, basis.cells))
        digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
        assert digest == "6b55df6f84e4ea84dbf5956c69501c00eb1256e2ceee204cfedc4ddb62b15550"

    # The two pins below hold what the solver writes where a rule breaks a
    # tie: which zero-flow cells start a tied symbol's tree, which row
    # takes the star when P = Q, and which tied cell leaves a pivot.  No
    # certificate check sees these choices, but they decide the basis, the
    # potentials and so what `couplingkit oracle` writes.

    def test_tied_mismatch_outputs_are_stable(self):
        rng = random.Random(1515)
        problems = [TransportProblem.mismatch(p, q) for p, q in tied_pairs(rng, 80)]
        assert solver_digest(problems) == "afa87ee65bdd2e27b418752f60f5650cdbe08c7151f12b0704528437593a9beb"

    def test_degenerate_general_cost_outputs_are_stable(self):
        # These problems have tied optima, and the start and the pricing
        # decide which one the pivots reach; the pin holds the shipped
        # solver's.  Each output is first checked to be optimal: certified,
        # and at desk scale the least objective over every vertex.
        problems = degenerate_problems()
        assert_optimal(problems)
        assert solver_digest(problems) == "7c3098f2e8b9339598265a253494af6ff850e0369c600106050afcfcf125a3bd"

    def test_general_costs_give_certified_optima(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(1, 6)
            p = random_pmf(rng, n)
            q = random_pmf(rng, n)
            tp = TransportProblem(p, q, random_cost(rng, n))
            coupling, cert, _ = solve_transport(tp)
            assert_certificate(tp, coupling, cert)


class TestIncrementalPotentials:
    def test_walks_on_a_cyclic_adjacency_raise(self):
        # rows 0, 1 and columns 0, 1 all joined: a 4-cycle, not a tree.
        # The sets stop a walk that the guard fails to end.
        visits = 0

        class Neighbours(set):
            def __iter__(self):
                nonlocal visits
                visits += 1
                assert visits < 100, "walk did not stop"
                return super().__iter__()

        row_adj = [Neighbours({0, 1}), Neighbours({0, 1})]
        col_adj = [Neighbours({0, 1}), Neighbours({0, 1})]
        cost = [[0, 1], [1, 0]]
        tree = ([0, 0], [0, 0], [-1, 0, 0, 1], [0, 2, 1, 3])
        with pytest.raises(CorruptedCouplingError, match="walk passed 2N nodes"):
            transport_module._rehang(2, 0, row_adj, col_adj, cost, tree)
        with pytest.raises(CorruptedCouplingError, match="walk passed 2N nodes"):
            transport_module._tree_walk(row_adj, col_adj, cost, 2)

    def test_maintained_tree_equals_a_fresh_walk_after_every_pivot(self, monkeypatch):
        rehang = transport_module._rehang
        checked = 0

        def checked_rehang(node, up, row_adj, col_adj, cost, tree):
            nonlocal checked
            rehang(node, up, row_adj, col_adj, cost, tree)
            fresh = transport_module._tree_walk(row_adj, col_adj, cost, len(row_adj))
            assert tree == fresh
            checked += 1

        monkeypatch.setattr(transport_module, "_rehang", checked_rehang)
        rng = random.Random(4242)
        for n in range(1, 31):
            for cost in (
                random_cost(rng, n, max_cost=1),
                random_cost(rng, n, max_cost=99),
                fractional_cost(rng, n),
            ):
                # few, small weights leave zero entries: degenerate pivots
                p = random_pmf(rng, n, max_weight=2)
                q = random_pmf(rng, n, max_weight=30)
                tp = TransportProblem(p, q, cost)
                coupling, cert, _ = solve_transport(tp)
                assert_certificate(tp, coupling, cert)
        assert checked > 1000


class TestLargeDenominators:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(coprime_problems))
    def test_small_instances_match_vertex_minimum(self, tp):
        coupling, cert, _ = solve_transport(tp)
        assert certify(coupling, cert, tp)
        assert cert.objective == min(reference.objective(tp, v) for v in vertex_enumerate(tp))

    @settings(max_examples=10, deadline=None)
    @given(coprime_problems(16))
    def test_n16_is_certified_with_exact_marginals(self, tp):
        assert math.lcm(*(x.denominator for x in tp.supply.p + tp.demand.p)).bit_length() > 1000
        coupling, cert, _ = solve_transport(tp)
        assert certify(coupling, cert, tp)
        assert [sum(row, F(0)) for row in coupling.j] == list(tp.supply.p)
        assert [sum(col, F(0)) for col in zip(*coupling.j)] == list(tp.demand.p)


class TestMinMismatch:
    def test_worked_pair(self, ramp, uniform4):
        coupling, cert = lp_min_mismatch(ramp, uniform4)
        assert cert.objective == F(1, 5)
        assert mismatch_prob(coupling) == F(1, 5)

    def test_equal_distributions(self, ramp):
        coupling, cert = lp_min_mismatch(ramp, ramp)
        assert cert.objective == F(0)
        for i in range(4):
            assert coupling.j[i][i] == ramp.p[i]

    @settings(max_examples=150, deadline=None)
    @given(pmf_pairs(max_n=6))
    def test_objective_equals_vdist(self, pair):
        p, q = pair
        coupling, cert = lp_min_mismatch(p, q)
        assert cert.objective == vdist_halfsum(p, q)
        assert certify(coupling, cert, TransportProblem.mismatch(p, q))


class TestCertify:
    def test_accepts_solver_output(self, ramp, uniform4):
        tp = TransportProblem.mismatch(ramp, uniform4)
        coupling, cert, _ = solve_transport(tp)
        assert certify(coupling, cert, tp)

    def test_rejects_tiny_potential_perturbation(self, ramp, uniform4):
        tp = TransportProblem.mismatch(ramp, uniform4)
        coupling, cert, _ = solve_transport(tp)
        bumped = DualCertificate(
            u=(cert.u[0] + F(1, 10**6),) + cert.u[1:],
            v=cert.v,
            objective=cert.objective,
        )
        assert not certify(coupling, bumped, tp)

    def test_rejects_objective_perturbation(self, ramp, uniform4):
        tp = TransportProblem.mismatch(ramp, uniform4)
        coupling, cert, _ = solve_transport(tp)
        bumped = DualCertificate(u=cert.u, v=cert.v, objective=cert.objective + F(1, 10**9))
        assert not certify(coupling, bumped, tp)

    def test_rejects_foreign_marginals(self, ramp, uniform4):
        tp = TransportProblem.mismatch(ramp, uniform4)
        _, cert, _ = solve_transport(tp)
        other, _, _ = solve_transport(TransportProblem.mismatch(uniform4, uniform4))
        assert not certify(other, cert, tp)

    def test_shape_mismatch_raises(self, ramp, uniform4):
        tp = TransportProblem.mismatch(ramp, uniform4)
        coupling, cert, _ = solve_transport(tp)
        small = DualCertificate(u=cert.u[:2], v=cert.v, objective=cert.objective)
        with pytest.raises(ShapeMismatchError):
            certify(coupling, small, tp)

    def test_product_residual_coupling_is_certified_optimal(self):
        # the certificate proves optimality of any coupling attaining the optimum
        rng = random.Random(31337)
        for _ in range(50):
            n = rng.randint(1, 6)
            p = random_pmf(rng, n)
            q = random_pmf(rng, n)
            tp = TransportProblem.mismatch(p, q)
            _, cert, _ = solve_transport(tp)
            assert certify(coupling_maximal(p, q), cert, tp)

    def test_perturbation_fuzz(self):
        # interior marginals make every potential weight-bearing, so any
        # nonzero nudge shifts the dual value off the exact optimum
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(1, 5)
            p = random_pmf(rng, n, interior=(n > 1))
            q = random_pmf(rng, n, interior=(n > 1))
            tp = TransportProblem.mismatch(p, q)
            coupling, cert, _ = solve_transport(tp)
            delta = F(rng.choice([-1, 1]), rng.randint(2, 10**6))
            which = rng.randrange(3)
            if which == 0:
                bumped = DualCertificate((cert.u[0] + delta,) + cert.u[1:], cert.v, cert.objective)
            elif which == 1:
                bumped = DualCertificate(cert.u, (cert.v[0] + delta,) + cert.v[1:], cert.objective)
            else:
                bumped = DualCertificate(cert.u, cert.v, cert.objective + delta)
            assert not certify(coupling, bumped, tp)


class TestCertifyMismatch:
    """The O(N) check must reject exactly what dense certify rejects."""

    @staticmethod
    def both(p, q, cert) -> tuple[bool, bool]:
        c = coupling_maximal(p, q)
        fast = certify_mismatch_coupling(c, cert)
        assert reference.certify_mismatch(c.diagonal(), cert, p, q) == fast
        return fast, certify(c, cert, TransportProblem.mismatch(p, q))

    def test_closed_form_on_worked_pair(self, ramp, uniform4):
        cert = mismatch_certificate(ramp, uniform4)
        assert cert.u == (F(0), F(0), F(1), F(1))
        assert cert.v == (F(0), F(0), F(-1), F(-1))
        assert cert.objective == F(1, 5)
        assert self.both(ramp, uniform4, cert) == (True, True)

    def test_rejects_diagonal_violation(self):
        # P == Q: the off-diagonal constraints (max 1) and all three
        # objectives (0) hold, and only u_1 + v_1 = 1 > 0 fails
        u2 = Pmf.uniform(Alphabet.of_size(2))
        bad = DualCertificate((F(1), F(-1)), (F(0), F(0)), F(0))
        assert self.both(u2, u2, bad) == (False, False)

    def test_rejects_off_diagonal_violation_at_top_entries(self):
        # P == Q: the diagonal constraints and all three objectives hold, and
        # only u_1 + v_2 = 2 > 1, at the largest u and the largest v, fails
        u3 = Pmf.uniform(Alphabet.of_size(3))
        bad = DualCertificate((F(2), F(0), F(0)), (F(-2), F(0), F(0)), F(0))
        assert self.both(u3, u3, bad) == (False, False)

    @pytest.mark.parametrize("side", ["u", "v"])
    @pytest.mark.parametrize("delta", [F(1, 10**30), F(-1, 10**30)])
    def test_rejects_perturbed_potential(self, ramp, uniform4, side, delta):
        cert = mismatch_certificate(ramp, uniform4)
        for i in range(4):
            u = tuple(x + delta if side == "u" and k == i else x for k, x in enumerate(cert.u))
            v = tuple(x + delta if side == "v" and k == i else x for k, x in enumerate(cert.v))
            bad = DualCertificate(u, v, cert.objective)
            assert self.both(ramp, uniform4, bad) == (False, False)

    @pytest.mark.parametrize("delta", [F(1, 10**30), F(-1, 10**30)])
    def test_rejects_wrong_objective(self, ramp, uniform4, delta):
        cert = mismatch_certificate(ramp, uniform4)
        bad = DualCertificate(cert.u, cert.v, cert.objective + delta)
        assert self.both(ramp, uniform4, bad) == (False, False)

    def test_shape_mismatch_raises(self, ramp, uniform4):
        cert = mismatch_certificate(ramp, uniform4)
        c = coupling_maximal(ramp, uniform4)
        short = DualCertificate(cert.u[:3], cert.v[:3], cert.objective)
        long_v = DualCertificate(cert.u, cert.v + (F(0),), cert.objective)
        for bad in (short, long_v):
            with pytest.raises(ShapeMismatchError):
                certify_mismatch_coupling(c, bad)

    def test_agrees_with_dense_on_random_potentials(self):
        # potentials from a few values, so ties and a shared argmax of u and
        # v are common; the objective is set to the dual value
        rng = random.Random(4242)
        for _ in range(200):
            n = rng.randint(1, 5)
            p = random_pmf(rng, n)
            q = random_pmf(rng, n)
            u = tuple(F(rng.randint(-2, 2), 2) for _ in range(n))
            v = tuple(F(rng.randint(-2, 2), 2) for _ in range(n))
            dual = sum(x * y for x, y in zip(u, p.p)) + sum(x * y for x, y in zip(v, q.p))
            fast, dense = self.both(p, q, DualCertificate(u, v, dual))
            assert fast == dense

    def test_agrees_with_dense_when_only_off_diagonal_decides(self):
        # P == Q and v = -u on the support: the diagonal constraints and all
        # three objectives (0) hold, so the verdict is max_{i != j} u_i + v_j <= 1
        rng = random.Random(4243)
        verdicts = set()
        for _ in range(200):
            n = rng.randint(1, 5)
            p = random_pmf(rng, n)
            u = tuple(F(rng.randint(-3, 3), 2) for _ in range(n))
            v = tuple(-x if w else -x - rng.randint(0, 2) for x, w in zip(u, p.p))
            fast, dense = self.both(p, p, DualCertificate(u, v, F(0)))
            assert fast == dense
            verdicts.add(fast)
        assert verdicts == {True, False}


class TestVertexEnumeration:
    def test_two_by_two_uniform_has_two_vertices(self):
        u = Pmf.uniform(Alphabet.of_size(2))
        vertices = vertex_enumerate(TransportProblem.mismatch(u, u))
        matrices = {v.j for v in vertices}
        half = F(1, 2)
        assert matrices == {
            ((half, F(0)), (F(0), half)),
            ((F(0), half), (half, F(0))),
        }

    def test_worked_pair_minimum_over_vertices(self, ramp, uniform4):
        vertices = vertex_enumerate(TransportProblem.mismatch(ramp, uniform4))
        assert min(mismatch_prob(v) for v in vertices) == F(1, 5)

    def test_equal_marginals_reach_zero_mismatch(self):
        rng = random.Random(7)
        p = random_pmf(rng, 3)
        vertices = vertex_enumerate(TransportProblem.mismatch(p, p))
        assert any(mismatch_prob(v) == 0 for v in vertices)

    def test_every_vertex_satisfies_the_inequality(self, ramp, uniform4):
        v = vdist_halfsum(ramp, uniform4)
        for vertex in vertex_enumerate(TransportProblem.mismatch(ramp, uniform4)):
            assert v <= mismatch_prob(vertex)

    @settings(max_examples=60, deadline=None)
    @given(fractional_problems(max_n=3))
    def test_matches_the_fraction_reference(self, tp):
        assert vertex_enumerate(tp) == reference.vertex_enumerate(tp)

    @pytest.mark.parametrize("seed, max_weight", [(5, 1), (3, 2), (5, 2), (3, 30)])
    def test_matches_the_fraction_reference_at_n4(self, seed, max_weight):
        # small weights leave zero entries and ties, so many bases share a
        # vertex (1920 feasible bases for 6 vertices at seed 5, weight 1);
        # weight 30 gives 304 vertices, one basis each
        rng = random.Random(seed)
        p = random_pmf(rng, 4, max_weight=max_weight)
        q = random_pmf(rng, 4, max_weight=max_weight)
        tp = TransportProblem(p, q, fractional_cost(rng, 4))
        vertices = vertex_enumerate(tp)
        assert vertices == reference.vertex_enumerate(tp)
        assert len(vertices) > 1

    def test_size_cap(self):
        p = Pmf.uniform(Alphabet.of_size(5))
        with pytest.raises(EnumerationLimitError):
            vertex_enumerate(TransportProblem.mismatch(p, p))

    def test_cap_is_adjustable(self):
        p = Pmf.uniform(Alphabet.of_size(3))
        tp = TransportProblem.mismatch(p, p)
        with pytest.raises(EnumerationLimitError):
            vertex_enumerate(tp, max_size=2)
        assert any(mismatch_prob(v) == 0 for v in vertex_enumerate(tp, max_size=3))


class TestBasisTree:
    @settings(max_examples=80, deadline=None)
    @given(pmf_pairs(max_n=6))
    def test_basis_always_spanning_tree_sized(self, pair):
        p, q = pair
        n = len(p.alphabet)
        _, _, basis = solve_transport(TransportProblem.mismatch(p, q))
        assert isinstance(basis, BasisTree)
        assert len(basis.cells) == 2 * n - 1
        assert len(set(basis.cells)) == 2 * n - 1


def northwest_corner(supply, demand) -> list[dict]:
    """The northwest-corner basis on integer marginals: 2N - 1 cells from (0, 0) to (N-1, N-1).

    A feasible start that is not optimal on the mismatch cost in general,
    so the simplex pivots from it.  Row i's dict maps its basic columns
    to their flows, as ``_initial_basis`` returns them.
    """
    n = len(supply)
    left, right = list(supply), list(demand)
    flow = [{} for _ in range(n)]
    i = j = 0
    while True:
        take = min(left[i], right[j])
        flow[i][j] = take
        left[i] -= take
        right[j] -= take
        if i == j == n - 1:
            return flow
        if left[i] == 0 and i < n - 1:
            i += 1
        else:
            j += 1


def closed_form_start(supply, demand, cost) -> list[dict]:
    """The 0/1 cost's closed-form start in place of the least-cost start of general costs."""
    return transport_module._initial_basis(supply, demand)


def unit_cost(n: int):
    return [[int(a != b) for b in range(n)] for a in range(n)]


class TestMismatchPricing:
    """On the 0/1 cost the closed-form start is optimal, and the O(N) pricing is the dense scan's."""

    @staticmethod
    def counted_pricing(monkeypatch) -> list:
        """The results of every call of the O(N) pricing, in order."""
        results = []
        price = transport_module._entering_mismatch

        def counted(u, v):
            results.append(price(u, v))
            return results[-1]

        monkeypatch.setattr(transport_module, "_entering_mismatch", counted)
        return results

    @settings(max_examples=150, deadline=None)
    @given(pmf_pairs(max_n=7, max_weight=4))
    def test_pricing_runs_once_and_finds_nothing(self, pair):
        with pytest.MonkeyPatch.context() as monkeypatch:
            results = self.counted_pricing(monkeypatch)
            _, cert, _ = solve_transport(TransportProblem.mismatch(*pair))
        assert results == [None]
        assert cert.objective == vdist_halfsum(*pair)

    @settings(max_examples=150, deadline=None)
    @given(pmf_pairs(max_n=7, max_weight=4))
    def test_potentials_are_the_upper_set_dual_up_to_a_shift(self, pair):
        p, q = pair
        n = len(p.alphabet)
        _, cert, _ = solve_transport(TransportProblem.mismatch(p, q))
        _, ints = transport_module.scaled(p.p + q.p)
        inside, _ = transport_module.upper_set_dual(ints[:n], ints[n:])
        if p == q:
            # no over-demanded column: row 0's star, u = -1 and v = 1 off symbol 0
            assert cert.u == tuple(F(0) if i == 0 else F(-1) for i in range(n))
        else:
            shift = cert.u[0] - inside[0]
            assert cert.u == tuple(b + shift for b in inside)
        assert cert.v == tuple(-x for x in cert.u)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(*[st.lists(st.integers(-3, 3), min_size=n, max_size=n)] * 2)
    ))
    def test_same_cell_as_the_dense_scan(self, potentials):
        u, v = potentials
        expected = transport_module._entering_cell(unit_cost(len(u)), u, v)
        assert transport_module._entering_mismatch(u, v) == expected

    @pytest.mark.parametrize(
        "u, v, cell",
        [
            ([0, 0, 0], [0, 0, 0], None),
            ([0, 1, 0], [0, 0, 0], (1, 1)),  # diagonal: u_1 + v_1 > 0
            ([1, 0, 0], [-1, 0, 1], (0, 2)),  # the largest v lies off row 0's diagonal
            ([0, 0, 0], [0, 2, 0], (0, 1)),  # the largest v, 2, leaves row 0 at 0 on its diagonal
            ([0, 1, 0], [0, -1, 1], (1, 2)),  # row 0 has none; row 1's first is off its diagonal
            ([0, 1, 0], [-1, 1, -1], (1, 1)),  # the largest v sits only in row 1's own column
        ],
    )
    def test_worked_potentials(self, u, v, cell):
        assert transport_module._entering_cell(unit_cost(3), u, v) == cell
        assert transport_module._entering_mismatch(u, v) == cell

    def test_pivots_from_a_northwest_start_match_the_dense_pricing(self, monkeypatch):
        # A start that is not optimal makes the O(N) pricing choose every
        # entering cell of a pivot sequence; the dense scan must choose the same.
        monkeypatch.setattr(transport_module, "_initial_basis", northwest_corner)
        rng = random.Random(1518)
        problems = [TransportProblem.mismatch(p, q) for p, q in tied_pairs(rng, 60)]
        problems += [
            TransportProblem.mismatch(random_pmf(rng, n, max_weight=4), random_pmf(rng, n, max_weight=4))
            for n in range(1, 9)
            for _ in range(8)
        ]
        results = self.counted_pricing(monkeypatch)
        fast = [solve_transport(tp) for tp in problems]
        assert sum(cell is not None for cell in results) > 100
        monkeypatch.setattr(
            transport_module, "_entering_mismatch",
            lambda u, v: transport_module._entering_cell(unit_cost(len(u)), u, v),
        )
        for tp, (coupling, cert, basis) in zip(problems, fast):
            assert solve_transport(tp) == (coupling, cert, basis)
            assert certify(coupling, cert, tp)
            assert cert.objective == vdist_halfsum(tp.supply, tp.demand)


def dense_most_negative(cost, u, v):
    """The dense reference for the most-negative pricing: the least negative reduced cost, first in row-major order."""
    best, cell = 0, None
    for a, (crow, ua) in enumerate(zip(cost, u)):
        for b, (c, vb) in enumerate(zip(crow, v)):
            if c - ua - vb < best:
                best, cell = c - ua - vb, (a, b)
    return cell


def dense_first_negative(cost, u, v):
    """The dense reference for Bland's rule: the first negative reduced cost in row-major order."""
    for a, (crow, ua) in enumerate(zip(cost, u)):
        for b, (c, vb) in enumerate(zip(crow, v)):
            if c - ua - vb < 0:
                return a, b
    return None


def dense_row_leasts(cost, u, v):
    """The reference for the scan: each row's first cell of least reduced cost, in row order, where it is negative."""
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
    """The reference for the candidate pricing: the listed cell of least negative reduced cost, the earliest of ties."""
    best, cell = 0, None
    for a, b in candidates:
        if cost[a][b] - u[a] - v[b] < best:
            best, cell = cost[a][b] - u[a] - v[b], (a, b)
    return cell


def watch_pricings(monkeypatch, checked: bool = False) -> list:
    """Every general-cost pricing call, as (kind, cell), in order.

    The kinds are "bland" (:func:`_entering_cell`), "scan"
    (:func:`_row_leasts`, recorded with the cell None) and "candidate"
    (:func:`_entering_candidate`).  When ``checked``, each call must follow
    the rule cell by cell: Bland's cell is the dense first negative one;
    the scan lists :func:`dense_row_leasts`; the candidate pricing is
    handed the last scan's list (an empty one before the first scan and
    after a Bland pricing) and enters its most negative cell, which right
    after a scan is the dense most negative cell.
    """
    calls = []
    listed = []  # what the next candidate pricing must be handed
    bland, scan, candidate = (
        getattr(transport_module, name) for name in ("_entering_cell", "_row_leasts", "_entering_candidate")
    )

    def watched_bland(cost, u, v):
        cell = bland(cost, u, v)
        assert not checked or cell == dense_first_negative(cost, u, v)
        listed.clear()
        calls.append(("bland", cell))
        return cell

    def watched_scan(cost, u, v):
        cells = scan(cost, u, v)
        assert not checked or cells == dense_row_leasts(cost, u, v)
        listed[:] = cells
        calls.append(("scan", None))
        return cells

    def watched_candidate(candidates, cost, u, v):
        cell = candidate(candidates, cost, u, v)
        if checked:
            assert candidates == listed
            assert cell == most_negative_listed(candidates, cost, u, v)
            if calls and calls[-1][0] == "scan":
                assert cell == dense_most_negative(cost, u, v)
        calls.append(("candidate", cell))
        return cell

    monkeypatch.setattr(transport_module, "_entering_cell", watched_bland)
    monkeypatch.setattr(transport_module, "_row_leasts", watched_scan)
    monkeypatch.setattr(transport_module, "_entering_candidate", watched_candidate)
    return calls


def bland_throughout(monkeypatch) -> None:
    """Price every general-cost pivot by Bland's rule; after :func:`watch_pricings`, each call is watched as "bland"."""
    monkeypatch.setattr(
        transport_module, "_entering_candidate",
        lambda candidates, cost, u, v: transport_module._entering_cell(cost, u, v),
    )


def pivots(calls, kind: str | None = None) -> int:
    return sum(cell is not None for k, cell in calls if kind in (None, k))


def scans(calls) -> int:
    return sum(k == "scan" for k, _ in calls)


def dantzig_cell(cost, u, v):
    """The cell the candidate pricing enters right after a scan."""
    return transport_module._entering_candidate(transport_module._row_leasts(cost, u, v), cost, u, v)


class TestBoundedPricing:
    """On general costs every pricing follows its plain-Python reference, and every solve is certified."""

    def solve_all(
        self, problems, monkeypatch, starts=(transport_module._least_cost_basis, closed_form_start), bland=False
    ) -> int:
        """Solve and certify each problem under the checked pricings from each start; the number of pivots made.

        From the solver's own least-cost start the simplex makes few
        pivots, so by default each problem is also solved from the
        closed-form start, which is far from optimal on general costs and
        makes the pricing work.  With ``bland``, each is then solved again
        under Bland's rule throughout, which makes several times the pivots
        of the shipped rule.
        """
        calls = watch_pricings(monkeypatch, checked=True)
        for rule in ("shipped", "bland") if bland else ("shipped",):
            if rule == "bland":
                bland_throughout(monkeypatch)
            for start in starts:
                monkeypatch.setattr(transport_module, "_least_cost_basis", start)
                for tp in problems:
                    coupling, cert, _ = solve_transport(tp)
                    assert_certificate(tp, coupling, cert)
        assert pivots(calls, "candidate") > 0
        return pivots(calls)

    @pytest.mark.parametrize("max_cost", [1, 3, 99])
    def test_integer_costs(self, max_cost, monkeypatch):
        rng = random.Random(1700 + max_cost)
        problems = [
            TransportProblem(p, q, random_cost(rng, n, max_cost=max_cost))
            for n in range(1, 13)
            for p, q in [(random_pmf(rng, n, max_weight=3), random_pmf(rng, n)) for _ in range(4)]
        ]
        assert self.solve_all(problems, monkeypatch, bland=True) > 200

    def test_fractional_costs(self, monkeypatch):
        rng = random.Random(1704)
        problems = [
            TransportProblem(random_pmf(rng, n), random_pmf(rng, n, max_weight=4), fractional_cost(rng, n))
            for n in range(1, 11)
            for _ in range(4)
        ]
        assert self.solve_all(problems, monkeypatch, bland=True) > 200

    def test_tied_marginals(self, monkeypatch):
        rng = random.Random(1705)
        problems = [
            TransportProblem(p, q, random_cost(rng, len(p.p), max_cost=rng.choice([1, 3, 99])))
            for p, q in tied_pairs(rng, 120)
        ]
        assert self.solve_all(problems, monkeypatch) > 100

    def test_from_a_northwest_start(self, monkeypatch):
        rng = random.Random(1706)
        problems = [TransportProblem(p, q, random_cost(rng, len(p.p), max_cost=3)) for p, q in tied_pairs(rng, 60)]
        problems += [
            TransportProblem(random_pmf(rng, n, max_weight=4), random_pmf(rng, n, max_weight=4), random_cost(rng, n))
            for n in range(1, 11)
            for _ in range(3)
        ]

        def northwest(supply, demand, cost):
            return northwest_corner(supply, demand)

        assert self.solve_all(problems, monkeypatch, starts=(northwest,)) > 200

    @pytest.mark.parametrize(
        "cost, cell",
        [
            # The least, -2, at (1, 1), (2, 1) and (2, 2): ties across rows and columns.
            ([[0, 0, 0], [0, -2, -1], [0, -2, -2]], (1, 1)),
            # A tie across rows only: the smaller row wins, though the other cell has the smaller column.
            ([[0, 0, 0], [0, -1, -3], [0, -3, -1]], (1, 2)),
            # A tie across columns only, in the last row.
            ([[0, 0, 0], [0, -1, -1], [0, -4, -4]], (2, 1)),
            # A tie across columns in row 0, against a less negative later row.
            ([[0, -3, -3], [0, 0, 0], [0, -2, 0]], (0, 1)),
            # A strictly least cell in a later row beats earlier ties.
            ([[0, -1, -1], [0, -1, -1], [0, 0, -5]], (2, 2)),
            # No negative reduced cost: nothing enters.
            ([[0, 0, 0], [0, 1, 2], [0, 2, 0]], None),
        ],
        ids=["rows-and-columns", "rows", "columns", "columns-in-row-0", "strict-later-row", "none"],
    )
    def test_tie_patterns(self, cost, cell):
        # u = v = 0, so the reduced costs are the costs.
        assert dense_most_negative(cost, [0] * 3, [0] * 3) == cell
        assert transport_module._row_leasts(cost, [0] * 3, [0] * 3) == dense_row_leasts(cost, [0] * 3, [0] * 3)
        assert dantzig_cell(cost, [0] * 3, [0] * 3) == cell

    @pytest.mark.parametrize("bound", [[0, -2, -3], [0, -3, -2], [-5, -5, -5], [-2, -2, -2]])
    def test_ties_go_to_the_smallest_row_then_column(self, bound):
        # The least reduced cost, -2, is at (1, 1), (2, 1) and (2, 2).  Row a
        # is shifted by bound[a] and column b by bound[2 - b], in both the
        # costs and the potentials, so the reduced costs, and the cell, stay.
        reduced = [[0, 0, 0], [0, -2, -1], [0, -2, -2]]
        u, v = bound, bound[::-1]
        cost = [[r + ua + vb for r, vb in zip(row, v)] for row, ua in zip(reduced, u)]
        assert dense_most_negative(cost, u, v) == (1, 1)
        assert transport_module._row_leasts(cost, u, v) == [(1, 1), (2, 1)]
        assert dantzig_cell(cost, u, v) == (1, 1)

    @pytest.mark.parametrize(
        "candidates, cell",
        [
            ([(0, 2), (1, 0), (2, 1)], (0, 2)),  # -3 in rows 0 and 1: the earliest listed
            ([(1, 0), (0, 2), (2, 1)], (1, 0)),  # the same tie listed the other way round
            ([(0, 0), (2, 1)], (2, 1)),  # a listed cell has turned non-negative (or basic)
            ([(2, 1), (0, 2)], (0, 2)),  # the most negative, not the first negative
            ([(2, 1)], (2, 1)),  # unlisted cells are not priced, though (0, 2) is more negative
            ([(0, 0), (1, 1)], None),  # no listed cell is negative: the caller scans again
            ([], None),
        ],
        ids=[
            "tie-to-earliest", "tie-to-earliest-listed", "skips-non-negative", "most-negative", "listed-only",
            "none", "empty",
        ],
    )
    def test_candidate_patterns(self, candidates, cell):
        # The reduced costs are [[0, 0, -3], [-3, 0, 0], [0, -1, 0]], shifted as above.
        u, v = [1, -2, 4], [3, 0, -5]
        reduced = [[0, 0, -3], [-3, 0, 0], [0, -1, 0]]
        cost = [[r + ua + vb for r, vb in zip(row, v)] for row, ua in zip(reduced, u)]
        assert most_negative_listed(candidates, cost, u, v) == cell
        assert transport_module._entering_candidate(candidates, cost, u, v) == cell


@st.composite
def integer_marginals(draw, max_n: int = 7):
    """Balanced integer marginals with zeros and ties, as ``solve_transport`` scales them.

    The demand is the supply with a few units moved between symbols, so
    many symbols tie; sometimes it is then permuted.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    supply = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    supply[draw(st.integers(min_value=0, max_value=n - 1))] += 1
    demand = list(supply)
    for i, j in draw(st.lists(st.tuples(*[st.integers(min_value=0, max_value=n - 1)] * 2), max_size=n)):
        if demand[i]:
            demand[i] -= 1
            demand[j] += 1
    if draw(st.booleans()):
        demand = draw(st.permutations(demand))
    return supply, demand


@st.composite
def general_problems(draw, max_n: int = 6):
    """Marginals with zeros and ties (:func:`integer_marginals`), with integer, negative or fractional costs."""
    supply, demand = draw(integer_marginals(max_n=max_n))
    n, total = len(supply), sum(supply)
    alphabet = Alphabet.of_size(n)
    entry = draw(st.sampled_from([
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=-20, max_value=99),
        st.builds(F, st.integers(min_value=-20, max_value=20), st.sampled_from(COST_DENOMINATORS)),
    ]))
    cost = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    p, q = (Pmf(alphabet, tuple(F(w, total) for w in ws)) for ws in (supply, demand))
    return TransportProblem(p, q, cost)


def n64_problem() -> TransportProblem:
    """The N = 64 instance of the slow tests: 16-bit marginals, integer costs 0-99."""
    rng = random.Random(2016)
    alphabet = Alphabet.of_size(64)

    def marginal() -> Pmf:
        weights = [rng.randint(1, 2**16) for _ in range(64)]
        return Pmf(alphabet, [F(w, sum(weights)) for w in weights])

    cost = [[F(rng.randint(0, 99)) for _ in range(64)] for _ in range(64)]
    return TransportProblem(marginal(), marginal(), cost)


@pytest.fixture(scope="module")
def start_pivots() -> tuple[dict, dict]:
    """Pivots on 15 seeded N = 12-16 instances from the least-cost start and from the closed-form one.

    Each dict maps a rule, "shipped" or "bland" (Bland's rule throughout),
    to the pivots made over all 15; every solve is certified.
    """
    rng = random.Random(1800)
    problems = [
        TransportProblem(random_pmf(rng, n, interior=True), random_pmf(rng, n, interior=True),
                         random_cost(rng, n, max_cost=99))
        for n in (12, 13, 14, 15, 16)
        for _ in range(3)
    ]
    starts = (transport_module._least_cost_basis, closed_form_start)
    counts = ({}, {})
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = watch_pricings(monkeypatch)
        for rule in ("shipped", "bland"):
            if rule == "bland":
                bland_throughout(monkeypatch)
            for start, counted in zip(starts, counts):
                monkeypatch.setattr(transport_module, "_least_cost_basis", start)
                calls.clear()
                for tp in problems:
                    coupling, cert, _ = solve_transport(tp)
                    assert certify(coupling, cert, tp)
                counted[rule] = pivots(calls)
    return counts


class TestDantzigPricing:
    """The most negative listed cell enters, a scan lists the rows' leasts, and Bland's rule follows a degenerate pivot."""

    def test_pivot_counts_are_pinned(self, start_pivots):
        # A pricing or leaving rule that picks other cells on these instances moves these counts.
        assert start_pivots == ({"shipped": 228, "bland": 625}, {"shipped": 639, "bland": 2845})

    def test_at_most_half_the_pivots_of_blands_rule(self, start_pivots):
        least_cost, _ = start_pivots
        assert 2 * least_cost["shipped"] <= least_cost["bland"]

    @pytest.mark.parametrize("start, blands", [(transport_module._least_cost_basis, 50), (closed_form_start, 200)])
    def test_bland_prices_after_degenerate_pivots(self, start, blands, monkeypatch):
        # Tied marginals and costs 0-3 make many zero-flow pivots, and each
        # is followed by a Bland pricing; the results are still optimal.
        monkeypatch.setattr(transport_module, "_least_cost_basis", start)
        calls = watch_pricings(monkeypatch, checked=True)
        assert_optimal(degenerate_problems())
        assert sum(kind == "bland" for kind, _ in calls) > blands
        assert pivots(calls, "candidate") > 0

    @pytest.mark.parametrize("start", [transport_module._least_cost_basis, closed_form_start])
    def test_far_fewer_scans_than_pivots_at_n64(self, start, monkeypatch):
        # The candidate list is re-priced in O(N) per pivot and scanned
        # again only when no listed cell is negative, so a dense scan
        # serves about eight pivots or more here; a scan per pivot fails.
        tp = n64_problem()
        monkeypatch.setattr(transport_module, "_least_cost_basis", start)
        calls = watch_pricings(monkeypatch)
        coupling, cert, _ = solve_transport(tp)
        assert certify(coupling, cert, tp)
        assert pivots(calls) > 100
        assert 5 * scans(calls) < pivots(calls)

    @settings(max_examples=200, deadline=None)
    @given(general_problems())
    def test_every_solve_ends_with_no_negative_reduced_cost(self, tp):
        with pytest.MonkeyPatch.context() as monkeypatch:
            watch_pricings(monkeypatch, checked=True)
            coupling, cert, _ = solve_transport(tp)
        n = len(tp.supply.p)
        assert all(tp.cost[a][b] - cert.u[a] - cert.v[b] >= 0 for a in range(n) for b in range(n))
        assert_certificate(tp, coupling, cert)
        if n <= transport_module.DEFAULT_VERTEX_LIMIT:
            assert cert.objective == min(reference.objective(tp, v) for v in vertex_enumerate(tp))


class TestLeastCostStart:
    """General costs start from the least-cost spanning tree, which is far nearer the optimum."""

    @settings(max_examples=300, deadline=None)
    @given(integer_marginals(), st.data())
    def test_spanning_tree_meeting_both_marginals(self, marginals, data):
        supply, demand = marginals
        n = len(supply)
        cost = data.draw(st.lists(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n),
                                  min_size=n, max_size=n))
        flow = transport_module._least_cost_basis(supply, demand, cost)
        cells = [(a, b) for a, row in enumerate(flow) for b in row]
        assert len(cells) == 2 * n - 1
        # rows are nodes 0..n-1 and columns n..2n-1: each cell joining two
        # components, 2N - 1 of them join all 2N nodes without a cycle
        root = list(range(2 * n))

        def find(x: int) -> int:
            while root[x] != x:
                x = root[x]
            return x

        for a, b in cells:
            top, bottom = find(a), find(n + b)
            assert top != bottom
            root[bottom] = top
        assert all(x >= 0 for row in flow for x in row.values())
        assert [sum(row.values()) for row in flow] == supply
        assert [sum(row.get(b, 0) for row in flow) for b in range(n)] == demand

    def test_walks_cells_in_cost_row_column_order(self):
        # Cells (0, 1) and (1, 0) tie at cost 0; (0, 1) comes first by row,
        # takes all of row 0 and column 1, and retires the row.
        flow = transport_module._least_cost_basis([2, 1], [1, 2], [[5, 0], [0, 5]])
        assert flow == [{1: 2}, {0: 1, 1: 0}]

    def test_at_most_a_third_of_the_closed_form_starts_pivots(self, start_pivots):
        # Under Bland's rule throughout the least-cost start makes under a
        # third of the closed-form start's pivots; under the shipped rule,
        # which makes far fewer from either start, under half.
        least_cost, closed_form = start_pivots
        assert closed_form["bland"] > 1000
        assert 3 * least_cost["bland"] <= closed_form["bland"]
        assert 2 * least_cost["shipped"] <= closed_form["shipped"]


class TestStructuralCertify:
    """The O(N) check that ``oracle`` runs agrees with the Fraction reference on mismatch problems."""

    @settings(max_examples=150, deadline=None)
    @given(pmf_pairs(max_n=6), st.integers(min_value=0, max_value=5), st.sampled_from([F(1, 7), F(-1, 3), F(2)]))
    def test_agrees_with_the_reference_tampered_or_not(self, pair, k, delta):
        p, q = pair
        n = len(p.alphabet)
        tp = TransportProblem.mismatch(p, q)
        coupling, cert, _ = solve_transport(tp)
        k %= n
        tampered = [
            cert,
            DualCertificate(tuple(x + delta * (i == k) for i, x in enumerate(cert.u)), cert.v, cert.objective),
            DualCertificate(cert.u, tuple(x + delta * (i == k) for i, x in enumerate(cert.v)), cert.objective),
            DualCertificate(cert.u, cert.v, cert.objective + delta),
        ]
        verdicts = []
        for c in tampered:
            fast = certify_mismatch_coupling(coupling, c)
            assert reference.certify_mismatch(coupling.diagonal(), c, p, q) == fast
            verdicts.append((fast, reference.certify(coupling, c, tp)))
        assert verdicts[0] == (True, True)
        assert all(fast == dense for fast, dense in verdicts)
        assert verdicts[3] == (False, False)
        if delta > 0:
            # every diagonal cell is basic, so raising u_k or v_k breaks u_k + v_k <= 0
            assert verdicts[1] == verdicts[2] == (False, False)

    @settings(max_examples=100, deadline=None)
    @given(pmf_pairs(max_n=6), st.sampled_from([F(1, 7), F(-1, 3), F(2)]))
    def test_reads_any_coupling_of_the_pair(self, pair, delta):
        # The maximal coupling's pairs are reduced one by one, so its scale
        # need not be the problem's D; tampered or not, the verdict is the dense one's.
        p, q = pair
        tp = TransportProblem.mismatch(p, q)
        coupling = coupling_maximal(p, q)
        cert = mismatch_certificate(p, q)
        for c in (cert, DualCertificate(cert.u, cert.v, cert.objective + delta)):
            assert certify_mismatch_coupling(coupling, c) == reference.certify(coupling, c, tp)

    def test_shape_mismatch_raises(self, ramp, uniform4):
        coupling, cert, _ = solve_transport(TransportProblem.mismatch(ramp, uniform4))
        with pytest.raises(ShapeMismatchError):
            certify_mismatch_coupling(coupling, DualCertificate(cert.u[:3], cert.v, cert.objective))


def test_strong_duality_message_past_the_digit_limit(monkeypatch, default_digit_limit):
    # Doubled initial flows stay doubled through every pivot, so the primal
    # is twice the dual; D has about 4771 digits, so every int in the
    # message is past the int-to-str limit.
    tiny = F(1, 3**10000)
    p = Pmf(Alphabet.of_size(2), (tiny, 1 - tiny))
    q = Pmf.uniform(Alphabet.of_size(2))
    initial_basis = transport_module._initial_basis

    def doubled(supply, demand):
        return [{b: 2 * x for b, x in row.items()} for row in initial_basis(supply, demand)]

    monkeypatch.setattr(transport_module, "_initial_basis", doubled)
    pattern = (
        r"strong duality failed: dual <an integer of \d+ bits> != primal <an integer of \d+ bits>, "
        r"both over <an integer of \d+ bits>"
    )
    with pytest.raises(CorruptedCouplingError, match=pattern):
        solve_transport(TransportProblem.mismatch(p, q))
