"""Exact minimum-cost transportation solver with dual certificates.

The set of couplings of two fixed marginals is a transportation
polytope, so "minimize Pr{x != y} over all couplings" is a balanced
transportation LP with 0/1 mismatch cost.  This module solves that LP
(and any other rational-cost instance on the same marginals) exactly:

* transportation simplex on a spanning-tree basis, chosen over general
  simplex because the constraint matrix is totally unimodular;
* a start chosen by the cost's type.  On the 0/1 cost it is written
  down, not searched for: :func:`_initial_basis` keeps the diagonal
  overlap, routes the leftover mass through a staircase over the
  symbols with P != Q, and joins each tied symbol to it with one
  zero-flow cell (when P = Q, row 0 joins every column), which is a
  spanning tree in closed form and already optimal.  On general costs
  that tree is an arbitrary one, so :func:`_least_cost_basis` takes the
  cells in increasing (cost, row, column) order instead, each given all
  the mass its row or column has left: at N = 16 with costs 0-99 the
  simplex makes about 16 pivots from it, against about 46 from the
  closed-form tree;
* one integer form per problem: :class:`TransportProblem` scales its
  costs by L, the lcm of their denominators, and its marginals by D,
  the lcm of theirs, once, when it is built, and the solver,
  :func:`certify` and :func:`vertex_enumerate` all read those ints;
* the 0/1 mismatch problem in O(N): :meth:`TransportProblem.mismatch`
  builds no N x N matrix (the costs are a 0/1 view, and the public
  ``cost`` is built only when read), the start is already optimal, and
  :func:`_entering_mismatch` prices all N^2 cells in O(N);
* every pivot on integers: the tree potentials and reduced costs over
  L are integers with the signs of the exact ones, and total
  unimodularity makes every basic flow an integer over D.  Flows are
  kept on the 2N - 1 basic cells alone, and the coupling's rows list
  the non-zero ones over D, as pairs of ints
  (:meth:`~couplingkit.coupling.Coupling.over`); the certificate's
  potentials are the integer ones over L;
* each pivot's cycle is the tree path between the entering cell's row
  and column, and only the subtree that the leaving cell cuts off has
  its potentials walked again;
* a candidate list on general costs (multiple pricing): one dense scan
  (:func:`_row_leasts`) lists each row's first cell of least reduced
  cost wherever that least is negative, and each pricing re-prices only
  those cells, at most N, from the current potentials and enters the
  most negative, ties to the earliest row (:func:`_entering_candidate`).
  Only when none is negative is the matrix scanned again, so the loop
  ends only after a scan finds no negative reduced cost, and right after
  a scan the entering cell is Dantzig's: the most negative reduced cost,
  ties to the smallest row and then column.  At N = 16 with costs 0-99
  a solve makes about 17 pivots but only about 6 scans, and under half
  the pivots of Bland's first-negative rule;
* degeneracy handled with zero-flow basic cells: the smallest tied cell
  leaves, and after a pivot that moves no flow Bland's rule prices the
  next one (:func:`_entering_cell`, also a dense scan).  So the loop
  cannot cycle without perturbing data: a cycle of bases holds only
  degenerate pivots, so only Bland pivots, each decided by the basis
  alone, and Bland's rule never revisits a basis.  A pivot budget of
  ``MAX_PIVOTS_PER_CELL * N**2`` still guards the loop;
* the returned :class:`DualCertificate` carries row/column potentials
  whose feasibility plus exact objective equality proves optimality
  without trusting the solver's internals; :func:`certify` checks them
  on the problem's ints and its own: the potentials over S, the lcm of
  L and their denominators, the cost ints times S // L, and the
  problem's marginals over D, with the coupling's own ints;
* for the 0/1 mismatch cost, :func:`mismatch_certificate` builds the
  closed-form optimal dual, and :func:`certify_mismatch_coupling`, which
  ``couplingkit oracle`` runs, checks any certificate in O(N) on the
  coupling's own ints through :func:`certify_mismatch_ints`, the kernel
  that the key audit also calls; the dense :func:`certify` is their
  cross-check in the tests;
* :func:`vertex_enumerate` walks every spanning-tree basis at desk
  scale, depth-first with an undoable union-find, and strips each
  tree's leaves on the ints over D, as a second, exhaustive oracle over
  the whole polytope.

Everything is pure and reentrant; concurrent solves on separate inputs
share no state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
from math import lcm
from operator import add, ge, mul, sub
from typing import Iterable, Iterator, Sequence

from .coupling import Coupling
from .distributions import (
    ONE,
    ZERO,
    Pmf,
    joint_scaled,
    ratios_over,
    require_same_alphabet,
    scaled,
)
from .errors import CorruptedCouplingError, EnumerationLimitError, ShapeMismatchError
from .rational import bounded_str

DEFAULT_VERTEX_LIMIT = 4
# The pivot loop gives up after this many pivots per cell of the N x N
# cost matrix.  Random instances at N = 2 to 30 take at most about 0.4 per
# cell (1.4 under Bland's rule throughout, from the 0/1 cost's start), so
# reaching it means the loop is not terminating.
MAX_PIVOTS_PER_CELL = 50

CostMatrix = tuple[tuple[Fraction, ...], ...]
Cell = tuple[int, int]
Flows = list[dict[int, int]]  # row a's basic columns and their flows


@dataclass(frozen=True)
class TransportProblem:
    """Transportation instance: row/column marginals plus a cost matrix.

    Both marginals are validated :class:`Pmf` values of total 1, so the
    instance is balanced by construction.  The constructor also scales
    the problem to ints, once, for every consumer: ``_scaled_cost`` is
    (L, the cost rows times L) and ``_scaled_marginals`` is (D, the
    supply followed by the demand, times D), each scale the lcm of the
    denominators it covers; the marginals' ints are those their
    validation kept (:func:`~couplingkit.distributions.joint_scaled`).
    """

    supply: Pmf
    demand: Pmf
    cost: CostMatrix

    def __init__(self, supply: Pmf, demand: Pmf, cost: Sequence[Sequence[Fraction]]):
        require_same_alphabet(supply, demand)
        n = len(supply.alphabet)
        rows = tuple(tuple(row) for row in cost)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ShapeMismatchError(f"cost matrix must be {n}x{n}")
        for a, row in zip(supply.alphabet, rows):
            for b, value in zip(supply.alphabet, row):
                if not isinstance(value, (Fraction, int)):
                    raise ShapeMismatchError(
                        f"cost entry ({a},{b}) must be a Fraction or an int, "
                        f"got {type(value).__name__}"
                    )
        object.__setattr__(self, "supply", supply)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "cost", rows)
        # Not dataclass fields, so ==, hash and repr still compare the three above.
        scale, flat = scaled([c for row in rows for c in row])
        cost_rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        object.__setattr__(self, "_scaled_cost", (scale, cost_rows))
        object.__setattr__(self, "_scaled_marginals", joint_scaled(supply, demand))

    @classmethod
    def mismatch(cls, p: Pmf, q: Pmf) -> "TransportProblem":
        """0/1 cost: pay 1 everywhere off the diagonal. Objective = Pr{x != y}.

        Builds no N x N matrix: the scaled cost is the 0/1 view
        :class:`_UnitCost`, and the public ``cost`` is built when first read.
        """
        require_same_alphabet(p, q)
        tp = object.__new__(cls)
        n = len(p.alphabet)
        fields = dict(supply=p, demand=q, _scaled_cost=(1, _UnitCost(n)), _scaled_marginals=joint_scaled(p, q))
        for name, value in fields.items():
            object.__setattr__(tp, name, value)
        return tp

    def __getattr__(self, name: str):
        # Reached only for a missing attribute: a mismatch problem's ``cost`` before its first read.
        if name != "cost":
            raise AttributeError(name)
        n = len(self.supply.alphabet)
        cost = tuple(tuple(ZERO if i == j else ONE for j in range(n)) for i in range(n))
        object.__setattr__(self, "cost", cost)
        return cost


class _UnitRow:
    """Row ``a`` of the 0/1 mismatch cost as ints: 0 at column ``a``, 1 elsewhere, held as ``a`` and N."""

    __slots__ = ("a", "n")

    def __init__(self, a: int, n: int):
        self.a, self.n = a, n

    def __getitem__(self, b: int) -> int:
        return 0 if b == self.a else 1

    def __iter__(self) -> Iterator[int]:
        return (0 if b == self.a else 1 for b in range(self.n))


class _UnitCost(tuple):
    """The 0/1 mismatch cost ints as N rows of :class:`_UnitRow`: O(N) memory, no N x N list."""

    def __new__(cls, n: int):
        return super().__new__(cls, (_UnitRow(a, n) for a in range(n)))


@dataclass(frozen=True)
class DualCertificate:
    """Row/column potentials proving optimality.

    Feasibility (u_i + v_j <= cost_ij everywhere) makes the dual value
    a lower bound on every coupling's cost; exact equality with the
    primal objective pins the optimum.
    """

    u: tuple[Fraction, ...]
    v: tuple[Fraction, ...]
    objective: Fraction

    def to_json_dict(self) -> dict:
        return {
            "u": [str(x) for x in self.u],
            "v": [str(x) for x in self.v],
            "objective": str(self.objective),
        }


@dataclass(frozen=True)
class BasisTree:
    """Basic cells of a transportation-simplex solution.

    Always 2N - 1 cells forming a spanning tree of the bipartite
    supply/demand graph; degenerate cells carry explicit zero flow.
    """

    cells: tuple[Cell, ...]


def _initial_basis(supply: Sequence[int], demand: Sequence[int]) -> Flows:
    """Initial basic feasible solution on integer marginals: the flow on each of its 2N - 1 cells.

    Keeps the pointwise overlap min(s_i, d_i) on the diagonal and routes
    the leftover row mass to the leftover column mass through a
    staircase from the over-supplied rows (s_i > d_i) to the
    over-demanded columns (s_j < d_j).  The rest of the tree follows in
    closed form.  Contract each diagonal cell, so that row k and column
    k are one node k: the staircase is then a path through every node
    whose symbol has s != d, R + C - 1 cells on R + C nodes, and each
    tied symbol (s_k == d_k) is a lone node.  Each tied k takes the
    zero-flow cell (k, c), c the first over-demanded column, which joins
    it to the path; when P = Q there is no such column, every node is
    lone, and row 0 takes (0, j) for every j != 0.  Either way the cells
    number N + (N - T) - 1 + T = 2N - 1 with T the tied symbols, and they
    join all N nodes without a cycle, so they span the bipartite graph.
    Row a's dict maps each basic column of row a to its flow, zero flows
    included.

    On the 0/1 mismatch cost this start is optimal, so the simplex makes
    no pivot.  Each staircase cell joins an over-supplied node to an
    over-demanded one and each tied node joins an over-demanded one, so
    the potentials are, up to a shift, u = 1 and v = -1 on B = {s >= d}
    and 0 off it: the dual of :func:`mismatch_certificate`.  Cell (a, b)
    then has reduced cost 0 on the diagonal and 1 - 1_B(a) + 1_B(b) >= 0
    off it.  When P = Q the star gives u = -1 and v = 1 off symbol 0,
    u = v = 0 at it, and reduced costs of 0, 1 and 2 off the diagonal.
    """
    n = len(supply)
    overlap = [x if x < y else y for x, y in zip(supply, demand)]
    flow: Flows = [{i: x} for i, x in enumerate(overlap)]
    rx = list(map(sub, supply, overlap))
    ry = list(map(sub, demand, overlap))
    rows = [i for i in range(n) if rx[i] > 0]
    cols = [j for j in range(n) if ry[j] > 0]
    a = b = 0
    while a < len(rows) and b < len(cols):
        i, j = rows[a], cols[b]
        take = min(rx[i], ry[j])
        flow[i][j] = take
        rx[i] -= take
        ry[j] -= take
        if a == len(rows) - 1 and b == len(cols) - 1:
            break
        if rx[i] == 0 and a < len(rows) - 1:
            a += 1
        else:
            b += 1
    if cols:
        tied = [(k, cols[0]) for k in range(n) if supply[k] == demand[k]]
    else:
        tied = [(0, j) for j in range(1, n)]
    for i, j in tied:
        flow[i][j] = 0
    return flow


def _least_cost_basis(supply: Sequence[int], demand: Sequence[int], cost: Sequence[Sequence[int]]) -> Flows:
    """Least-cost ("matrix minimum") start on integer marginals and costs: the flow on each of its 2N - 1 cells.

    Takes the N^2 cells in increasing (cost, row, column) order, skipping
    a cell whose row or column is retired, and gives each the least of
    its row's and its column's remaining mass.  The last active row and
    column end the walk; before that each cell retires one line: its
    row, when the row's remainder is 0 and another row is active, else
    its column.  A retired line keeps a remainder of 0 (when the one
    active row runs out, every active column has run out with it), so
    the remainders balance and no line is retired while it still has
    mass to place.  Each of the 2N - 1 cells but the last retires a line
    that no later cell touches, so the cells join all 2N lines without a
    cycle, zero-flow cells included.  On general costs this start is
    far nearer the optimum than :func:`_initial_basis`, which is built
    for the 0/1 cost.
    """
    n = len(supply)
    left, right = list(supply), list(demand)
    flow: Flows = [{} for _ in range(n)]
    row_done, col_done = [False] * n, [False] * n
    rows = cols = n  # lines still active
    flat = [c for crow in cost for c in crow]
    # A stable sort of the row-major indices orders ties by row, then column.
    for a, b in map(divmod, sorted(range(n * n), key=flat.__getitem__), repeat(n)):
        if row_done[a] or col_done[b]:
            continue
        take = min(left[a], right[b])
        flow[a][b] = take
        left[a] -= take
        right[b] -= take
        if rows == cols == 1:
            break
        if left[a] == 0 and rows > 1:
            row_done[a] = True
            rows -= 1
        else:
            col_done[b] = True
            cols -= 1
    return flow


Tree = tuple[list[int], list[int], list[int], list[int]]


def _walk_below(
    top: int,
    row_adj: Sequence[Iterable[int]],
    col_adj: Sequence[Iterable[int]],
    cost: Sequence[Sequence[int]],
    tree: Tree,
) -> list[int]:
    """Set the potentials, parents and depths of every node below ``top``.

    ``tree`` is (u, v, parent, depth) with ``top``'s own entries already
    set; nodes 0..n-1 are rows and n..2n-1 columns.  Walks breadth-first,
    taking each node's neighbours other than its parent as its children,
    and returns the nodes walked, ``top`` first.  A tree has 2N nodes, so
    walking more means the adjacency has a cycle, which raises
    :class:`CorruptedCouplingError`.
    """
    u, v, parent, depth = tree
    n = len(row_adj)
    order = [top]
    push = order.append
    # ``order`` grows while it is walked, a breadth-first queue; a walk
    # that has not ended after 2N nodes has queued more than 2N.
    for x in islice(order, 2 * n):
        below, skip = depth[x] + 1, parent[x]
        if x < n:
            ux, crow = u[x], cost[x]
            for b in row_adj[x]:
                y = n + b
                if y != skip:
                    v[b] = crow[b] - ux
                    parent[y], depth[y] = x, below
                    push(y)
        else:
            b = x - n
            vb = v[b]
            for a in col_adj[b]:
                if a != skip:
                    u[a] = cost[a][b] - vb
                    parent[a], depth[a] = x, below
                    push(a)
    if len(order) > 2 * n:
        raise CorruptedCouplingError("basis has a cycle: walk passed 2N nodes")
    return order


def _tree_walk(
    row_adj: Sequence[Iterable[int]], col_adj: Sequence[Iterable[int]], cost: Sequence[Sequence[int]], n: int
) -> Tree:
    """Potentials u_i + v_j = cost_ij over the basis tree, anchored at u_0 = 0.

    Walks the whole tree from row 0; alongside the potentials it returns
    each node's parent and depth (the root's parent is -1).
    """
    tree = ([0] * n, [0] * n, [-1] * (2 * n), [0] * (2 * n))
    if len(_walk_below(0, row_adj, col_adj, cost, tree)) != 2 * n:
        raise CorruptedCouplingError("basis does not span the bipartite graph")
    return tree


def _rehang(
    node: int,
    up: int,
    row_adj: Sequence[Iterable[int]],
    col_adj: Sequence[Iterable[int]],
    cost: Sequence[Sequence[int]],
    tree: Tree,
) -> None:
    """Hang the subtree below ``node`` from ``up`` and reset it in place.

    After a pivot the leaving cell has cut a subtree off the root's
    side, and the entering cell (``node``, ``up``) joins it back, with
    ``node`` inside the subtree.  Nothing outside the subtree moves, so
    only its potentials, parents and depths are walked again, from the
    costs; in a tree with a fixed root all three are unique, so they
    equal those of a fresh :func:`_tree_walk`.
    """
    u, v, parent, depth = tree
    n = len(row_adj)
    parent[node], depth[node] = up, depth[up] + 1
    if node < n:
        u[node] = cost[node][up - n] - v[up - n]
    else:
        v[node - n] = cost[up][node - n] - u[up]
    _walk_below(node, row_adj, col_adj, cost, tree)


def _entering_cell(
    cost: Sequence[Sequence[int]], u: Sequence[int], v: Sequence[int]
) -> Cell | None:
    """First cell in row-major order with negative reduced cost cost_ab - u_a - v_b.

    Bland's rule, which :func:`solve_transport` applies after a
    degenerate pivot on general costs, and the dense reference for
    :func:`_entering_mismatch`: it scans the rows in order up to the
    first that holds a negative reduced cost.  Basic cells have reduced
    cost exactly 0, so they never qualify.
    """
    for a, (crow, ua) in enumerate(zip(cost, u)):
        if min(map(sub, crow, v)) < ua:
            return a, next(b for b, (c, vb) in enumerate(zip(crow, v)) if c - vb < ua)
    return None


def _row_leasts(cost: Sequence[Sequence[int]], u: Sequence[int], v: Sequence[int]) -> list[Cell]:
    """Each row's first cell of least reduced cost cost_ab - u_a - v_b, for every row where that least is negative.

    The dense scan of the candidate list that :func:`solve_transport`
    prices general costs from (:func:`_entering_candidate`).  The rows
    are listed in increasing order, so the list's most negative cell,
    ties to its earliest, is the most negative reduced cost of the whole
    matrix, ties to the smallest row and then column (Dantzig's rule).
    Basic cells have reduced cost exactly 0, so no listed cell is basic.
    """
    listed = []
    for a, (crow, ua) in enumerate(zip(cost, u)):
        reduced = list(map(sub, crow, v))
        low = min(reduced)
        if low < ua:
            listed.append((a, reduced.index(low)))
    return listed


def _entering_candidate(
    candidates: Sequence[Cell], cost: Sequence[Sequence[int]], u: Sequence[int], v: Sequence[int]
) -> Cell | None:
    """The listed cell of most negative reduced cost, ties to the earliest; None if no listed cell is negative.

    Re-prices only the listed cells, in O(N), from the current
    potentials: a pivot moves them, so a listed cell may have turned
    non-negative (or basic) and an unlisted one negative; the caller
    scans again (:func:`_row_leasts`) when this finds nothing.
    """
    best, found = 0, None
    for a, b in candidates:
        reduced = cost[a][b] - u[a] - v[b]
        if reduced < best:
            best, found = reduced, (a, b)
    return found


def _entering_mismatch(u: Sequence[int], v: Sequence[int]) -> Cell | None:
    """:func:`_entering_cell` on the 0/1 mismatch cost, in O(N).

    Cell (a, b) has reduced cost [a != b] - u_a - v_b, so row a has a
    negative one iff u_a + v_a > 0 or u_a + v_b > 1 for some b != a.  The
    second holds iff u_a + max(v) > 1: where max(v) is taken only at
    b = a, u_a + v_a > 1 meets the first.  Only the first such row is
    scanned, so the cell is the dense scan's.
    """
    top = max(v)
    for a, (ua, va) in enumerate(zip(u, v)):
        if ua + va > 0 or ua + top > 1:
            return a, next(b for b, vb in enumerate(v) if ua + vb > (a != b))
    return None


def solve_transport(tp: TransportProblem) -> tuple[Coupling, DualCertificate, BasisTree]:
    """Exact optimal basic solution via transportation simplex.

    Starts from :func:`_initial_basis` on the 0/1 mismatch cost, where it
    is optimal, and from :func:`_least_cost_basis` on general costs, where
    it is far nearer the optimum; on a problem with tied optima the start
    and the pricing decide which one the pivots reach.

    Entering variable on general costs: the most negative reduced cost
    among the candidate list's cells, ties to the earliest
    (:func:`_entering_candidate`); when none is negative the list is
    rebuilt by a dense scan of each row's least (:func:`_row_leasts`), so
    the cell entering right after a scan is the most negative reduced
    cost of the matrix, ties to the smallest row and then column.  After
    a degenerate pivot (one that moves no flow) the entering cell is
    instead the first negative one in row-major order (Bland's rule,
    :func:`_entering_cell`), and the list is dropped.  On the 0/1 cost it
    is always Bland's (:func:`_entering_mismatch`), and the start is
    already optimal.
    Leaving variable: smallest-index cell among those attaining the
    minimum flow on the cycle's decreasing positions.  The loop cannot
    cycle: a cycle of bases would hold only degenerate pivots, so only
    Bland pivots, and Bland's rule never revisits a basis.  A budget of
    ``MAX_PIVOTS_PER_CELL * N**2`` pivots guards it, and exceeding it
    raises :class:`CorruptedCouplingError`.

    Every pivot works on integers, the problem's own: its costs times
    L, the lcm of their denominators, so the tree potentials are
    integers and every reduced cost has the sign of the unscaled one,
    and its marginals times D, the lcm of theirs; the constraint matrix
    is totally unimodular, so every basic flow is an integer over D.
    Neither is scaled here: :class:`TransportProblem` did it once when
    it was built.  The potentials are walked over the whole tree once
    and then, after each pivot, only over the subtree that the leaving
    cell cuts off (:func:`_rehang`); each pricing reads them afresh,
    over the listed cells or, at a scan, over the whole matrix.
    Strong duality is checked on the integers; the coupling is the
    flows over D (:meth:`~couplingkit.coupling.Coupling.over`, with no
    Fraction per cell) and the certificate's potentials the integer ones
    over L.
    """
    n = len(tp.supply.alphabet)
    mass_scale, marginals = tp._scaled_marginals
    scale, cost = tp._scaled_cost
    unit = isinstance(cost, _UnitCost)
    supply, demand = marginals[:n], marginals[n:]
    # Row a's flows, keyed by its basic columns, are also row a's neighbours in the tree.
    flow = _initial_basis(supply, demand) if unit else _least_cost_basis(supply, demand, cost)
    col_adj: list[set[int]] = [set() for _ in range(n)]
    for a, row in enumerate(flow):
        for b in row:
            col_adj[b].add(a)
    tree = _tree_walk(flow, col_adj, cost, n)
    u, v, parent, depth = tree
    budget = MAX_PIVOTS_PER_CELL * n * n
    pivots = 0
    degenerate = False  # the last pivot moved no flow, so Bland's rule prices the next
    candidates: list[Cell] = []  # the last scan's cells, re-priced until none is negative
    while True:
        if unit:
            entering = _entering_mismatch(u, v)
        elif degenerate:
            entering = _entering_cell(cost, u, v)
            candidates = []
        else:
            entering = _entering_candidate(candidates, cost, u, v)
            if entering is None:
                candidates = _row_leasts(cost, u, v)
                entering = _entering_candidate(candidates, cost, u, v)
        if entering is None:
            break
        pivots += 1
        if pivots > budget:
            raise CorruptedCouplingError(
                f"transportation simplex made {pivots} pivots, "
                f"over its budget of {budget} for N = {n}"
            )
        a, b = entering
        # The cycle is the entering cell and the tree path from column b
        # to row a; the deeper end climbs until the two ends meet.  Each
        # path cell is on column b's side or row a's, and it decreases
        # when its lower end is of that side's kind.
        down: list[tuple[int, int, int]] = []  # (flow, row, column)
        up: list[Cell] = []
        x, y = n + b, a
        while x != y:
            if depth[x] > depth[y]:
                z = parent[x]
                if x < n:
                    up.append((x, z - n))
                else:
                    down.append((flow[z][x - n], z, x - n))
                x = z
            else:
                z = parent[y]
                if y < n:
                    down.append((flow[y][z - n], y, z - n))
                else:
                    up.append((z, y - n))
                y = z
        theta, p, q = min(down)  # the least flow, and of its cells the smallest leaves
        degenerate = not theta
        flow[a][b] = theta
        if theta:
            for i, j in up:
                flow[i][j] += theta
            for _, i, j in down:
                flow[i][j] -= theta
        del flow[p][q]
        col_adj[q].remove(p)
        col_adj[b].add(a)
        # The cycle passes each decreasing cell from its column to its
        # row, so the leaving cell's lower end says which side it cut.
        if parent[n + q] == p:
            _rehang(n + b, a, flow, col_adj, cost, tree)
        else:
            _rehang(a, n + b, flow, col_adj, cost, tree)

    cells = tuple((a, b) for a, row in enumerate(flow) for b in sorted(row))
    primal = sum(sum(crow[b] * x for b, x in row.items()) for crow, row in zip(cost, flow))
    dual = sum(map(mul, u, supply)) + sum(map(mul, v, demand))
    if dual != primal:
        raise CorruptedCouplingError(
            f"strong duality failed: dual {bounded_str(dual)} != primal {bounded_str(primal)}, "
            f"both over {bounded_str(scale * mass_scale)}"
        )
    coupling = _flow_coupling(flow, mass_scale, tp)
    certificate = DualCertificate(
        u=tuple(Fraction(x, scale) for x in u),
        v=tuple(Fraction(x, scale) for x in v),
        objective=Fraction(primal, scale * mass_scale),
    )
    return coupling, certificate, BasisTree(cells=cells)


def _flow_coupling(flow: Flows, mass_scale: int, tp: TransportProblem) -> Coupling:
    """The coupling of ``tp``'s marginals with entries ``flow`` over ``mass_scale``; each row lists its non-zero flows."""
    listed = [sorted(b for b, x in row.items() if x) for row in flow]
    rows = [(columns, [(row[b], mass_scale) for b in columns]) for row, columns in zip(flow, listed)]
    return Coupling.over(rows, tp.supply, tp.demand)


def lp_min_mismatch(p: Pmf, q: Pmf) -> tuple[Coupling, DualCertificate]:
    """Certified minimizer of Pr{x != y} over all couplings of p and q."""
    coupling, certificate, _ = solve_transport(TransportProblem.mismatch(p, q))
    return coupling, certificate


def certify(c: Coupling, cert: DualCertificate, tp: TransportProblem) -> bool:
    """True iff the pair (coupling, certificate) exactly proves optimality.

    Checks primal feasibility against the problem's marginals, dual
    feasibility of the potentials, and exact equality of primal,
    certificate, and dual objectives.  Exact arithmetic rejects any
    perturbation, however small.

    Runs on ints, one cost row at a time, and reads only the problem's
    data and the certificate, never the solver's internals.  The
    potentials and costs share one scale S, the lcm of the problem's
    cost scale L and the potentials' denominators: the potentials are
    scaled by S and the problem's cost ints multiplied by S // L (not
    at all when that is 1), so row i is feasible iff
    max_j (V_j - C_ij) <= -U_i with every value times S.  The primal
    objective sums C_ij * J_ij over the cells each row of the coupling
    lists, J_ij its entries over its ``scale``, and the dual sums
    U_i * S_i and V_j * D_j, the problem's marginal ints over D.
    """
    n = len(tp.supply.alphabet)
    if len(c.alphabet) != n or len(cert.u) != n or len(cert.v) != n:
        raise ShapeMismatchError("coupling/certificate size does not match problem")
    if c.left != tp.supply or c.right != tp.demand:
        return False
    cost_scale, cost_rows = tp._scaled_cost
    potential_scale, potentials = scaled([*cert.u, *cert.v])
    scale = lcm(cost_scale, potential_scale)
    factor, shift = scale // cost_scale, scale // potential_scale
    u = [x * shift for x in potentials[:n]]
    v = [x * shift for x in potentials[n:]]
    primal = 0
    for ui, crow, (columns, pairs) in zip(u, cost_rows, c._rows):
        cost = crow if factor == 1 else [x * factor for x in crow]
        if max(map(sub, v, cost)) > -ui:
            return False
        primal += sum(map(mul, map(cost.__getitem__, columns), ratios_over(c.scale, pairs)))
    marginal_scale, marginals = tp._scaled_marginals
    dual = sum(map(mul, chain(u, v), marginals))
    return Fraction(primal, scale * c.scale) == cert.objective == Fraction(dual, scale * marginal_scale)


def mismatch_certificate(p: Pmf, q: Pmf) -> DualCertificate:
    """Closed-form optimal dual for the 0/1 mismatch cost, without solving the LP.

    With B the symbols where P >= Q (:func:`~couplingkit.metrics.upper_set`),
    the potentials u = 1_B and v = -1_B are dual-feasible (u_i + v_i = 0
    on the diagonal, u_i + v_j <= 1 off it) and their value P(B) - Q(B)
    is v(P, Q), which the maximal coupling attains.  Computed by
    :func:`upper_set_dual` on P and Q over their common denominator
    (:func:`~couplingkit.distributions.joint_scaled`).
    """
    require_same_alphabet(p, q)
    n = len(p.alphabet)
    scale, ints = joint_scaled(p, q)
    inside, objective = upper_set_dual(ints[:n], ints[n:])
    u = tuple(ONE if b else ZERO for b in inside)
    return DualCertificate(u=u, v=tuple(-x for x in u), objective=Fraction(objective, scale))


def upper_set_dual(p: Sequence[int], q: Sequence[int]) -> tuple[list[bool], int]:
    """Membership of each symbol in B = {P >= Q}, and P(B) - Q(B), on ints over one scale."""
    inside = list(map(ge, p, q))
    return inside, sum(x - y for x, y, b in zip(p, q, inside) if b)


def certify_mismatch_coupling(c: Coupling, cert: DualCertificate) -> bool:
    """O(N) form of :func:`certify` for the 0/1 mismatch cost, on the coupling ``c`` of its own marginals.

    ``c`` is validated, so each of its rows and columns sums to its
    marginal's entry, and ``scale`` is a multiple of each marginal's
    common denominator: its diagonal
    (:meth:`~couplingkit.coupling.Coupling.diagonal_ints`) and both its
    marginals (:func:`~couplingkit.distributions.joint_scaled` over
    ``scale``) are ints over its ``scale``, with no Fraction and no gcd
    per symbol.  The potentials are scaled by their common denominator,
    and :func:`certify_mismatch_ints` checks the ints.  Agrees with
    ``certify(c, cert, TransportProblem.mismatch(c.left, c.right))``,
    without the N x N scans.
    """
    n = len(c.alphabet)
    if len(cert.u) != n or len(cert.v) != n:
        raise ShapeMismatchError("diagonal/certificate size does not match problem")
    _, marginals = joint_scaled(c.left, c.right, c.scale)
    scale, potentials = scaled([*cert.u, *cert.v])
    return certify_mismatch_ints(
        c.scale - sum(c.diagonal_ints()), potentials[:n], potentials[n:], scale, cert.objective, marginals, c.scale
    )


def certify_mismatch_ints(
    primal: int,
    u: Sequence[int],
    v: Sequence[int],
    scale: int,
    objective: Fraction,
    marginals: Sequence[int],
    mass: int,
) -> bool:
    """:func:`certify_mismatch_coupling` on ints: potentials over ``scale``, masses over ``mass``.

    ``primal`` is the coupling's cost 1 - sum(diagonal) and ``marginals``
    the supply followed by the demand, all times ``mass``; ``u`` and
    ``v`` are the potentials times ``scale``.  Dual feasibility is
    u_i + v_i <= 0 on the diagonal and u_i + v_j <= 1 off it.  Given the
    diagonal part, the off-diagonal part holds iff max(u) + max(v) <= 1:
    the sum of the maxima bounds every u_i + v_j, and it is attained off
    the diagonal unless u and v each attain their maximum only at one
    and the same symbol k, where it is u_k + v_k <= 0.  Then primal,
    certificate and dual objectives must be exactly equal; the dual,
    sum(u_i * S_i) + sum(v_j * D_j), is an int over ``scale * mass``.
    Every product has one factor over ``scale`` and one over ``mass``.
    """
    if max(map(add, u, v)) > 0:
        return False
    if max(u) + max(v) > scale:
        return False
    dual = sum(map(mul, chain(u, v), marginals))
    return primal * objective.denominator == objective.numerator * mass and dual == primal * scale


def vertex_enumerate(tp: TransportProblem, max_size: int = DEFAULT_VERTEX_LIMIT) -> list[Coupling]:
    """All vertices of the transportation polytope, via exhaustive bases.

    The bases are the spanning trees of the bipartite row/column graph
    (Klee and Witzgall, 1968).  The walk takes the N^2 cells depth-first
    in row-major order, each one first included and then left out, and
    includes a cell only when it joins two components of a union-find
    whose unions are undone on the way back; so it reaches exactly the
    spanning trees, each once, in the order of
    ``itertools.combinations`` over the cells.  :func:`_tree_flows`
    strips each tree's leaves on the marginals over D, trees with a
    negative flow are dropped, and coinciding (degenerate) vertices are
    kept once, in the order first reached.  Deliberately capped: the
    tree count, N^(2N - 2), grows fast, and this exists purely as an
    independent cross-check at desk scale.
    """
    n = len(tp.supply.alphabet)
    if n > max_size:
        raise EnumerationLimitError(
            f"vertex enumeration is capped at N <= {max_size}, got N = {n}"
        )
    mass_scale, marginals = tp._scaled_marginals
    size = 2 * n - 1
    parent = list(range(2 * n))  # rows 0..n-1, columns n..2n-1; no path compression
    tree: list[Cell] = []
    flows: dict[frozenset[tuple[int, int, int]], Flows] = {}

    def root(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def walk(k: int) -> None:
        # Cells before k are decided and ``tree`` is a forest; the guards
        # keep k below N^2, so the recursion is at most N^2 deep.
        a, b = divmod(k, n)
        top, bottom = root(a), root(n + b)
        if top != bottom:
            parent[bottom] = top
            tree.append((a, b))
            if len(tree) == size:
                flow = _tree_flows(tree, marginals, n)
                if flow is not None:
                    # a vertex is its non-zero flows; a repeat keeps its first place
                    key = frozenset((a, b, x) for a, row in enumerate(flow) for b, x in row.items() if x)
                    flows.setdefault(key, flow)
            elif len(tree) + n * n - k - 1 >= size:
                walk(k + 1)
            tree.pop()
            parent[bottom] = bottom
        if len(tree) + n * n - k - 1 >= size:
            walk(k + 1)

    walk(0)
    return [_flow_coupling(flow, mass_scale, tp) for flow in flows.values()]


def _tree_flows(tree: Sequence[Cell], marginals: Sequence[int], n: int) -> Flows | None:
    """The flow on each cell of a spanning tree, as ints over D; None if one is negative.

    ``marginals`` is the supply followed by the demand, times D.  A node
    (row a is node a, column b node n + b) on exactly one remaining cell
    forces that cell's flow to the node's remaining mass; the cell is
    then stripped, which may make a leaf of its other end.
    """
    left = list(marginals)
    incident: list[set[Cell]] = [set() for _ in range(2 * n)]
    for a, b in tree:
        incident[a].add((a, b))
        incident[n + b].add((a, b))
    leaves = [x for x in range(2 * n) if len(incident[x]) == 1]
    flow: Flows = [{} for _ in range(n)]
    while leaves:
        x = leaves.pop()
        if not incident[x]:
            continue  # its last cell was stripped from the other end
        (cell,) = incident[x]
        amount = left[x]
        if amount < 0:
            return None
        a, b = cell
        flow[a][b] = amount
        for y in (a, n + b):
            left[y] -= amount
            incident[y].discard(cell)
            if len(incident[y]) == 1:
                leaves.append(y)
    return flow
