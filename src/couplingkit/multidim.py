"""Couplings of two-dimensional distributions.

A pair of two-dim distributions on A^2 couples through a four-index
joint j(x1, x2, y1, y2).  Everything here reduces to the one-dimensional
machinery over the flattened product alphabet: a pair (a, b) is one
symbol of A^2, and the coupling inequality / maximal construction apply
verbatim to pairs.  The reduction is also exposed structurally (the
:attr:`Coupling4.flat` field), so the equivalence is testable rather
than an implementation secret.

:func:`coupling4_constrained` builds the one coupling allowed when the
first three coordinates are forced equal (x1 = x2 = y1): all mass sits
on cells (a, a, a, b), weighted by the right-hand distribution.  Under
that constraint the pair mismatch collapses to the second-coordinate
mismatch and both equal the variational distance.  Every builder's flat
coupling lists only its non-zero cells (at most N^2 of the N^4 for the
constrained one), and :func:`mismatch_components` reads only those.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coupling import Coupling, _Coprime, coupling_independent, coupling_maximal, mismatch_prob
from .distributions import Alphabet, Pmf2, ratios_over, require_same_alphabet
from .errors import ConstraintInfeasibleError
from .metrics import vdist_halfsum
from .rational import bounded_str

Tensor4 = tuple[tuple[tuple[tuple[Fraction, ...], ...], ...], ...]


@dataclass(frozen=True)
class Coupling4:
    """Four-index joint distribution with cached two-dim marginals.

    Stored as the flattened one-dimensional coupling over the product
    alphabet; indexing by (x1, x2, y1, y2) is provided on top.
    """

    alphabet: Alphabet
    flat: Coupling
    left2: Pmf2
    right2: Pmf2

    def __init__(self, flat: Coupling, left2: Pmf2, right2: Pmf2):
        require_same_alphabet(left2, right2)
        alphabet = left2.alphabet
        # Pmf equality compares alphabets, so this also pins flat to the product alphabet.
        if flat.left != left2.flatten() or flat.right != right2.flatten():
            raise ConstraintInfeasibleError(
                "flattened coupling marginals do not match the two-dim marginals"
            )
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "left2", left2)
        object.__setattr__(self, "right2", right2)

    @classmethod
    def from_tensor(cls, tensor: Tensor4, left2: Pmf2, right2: Pmf2) -> "Coupling4":
        """Validate a raw four-index array against its intended marginals."""
        n = len(left2.alphabet)
        rows = tuple(
            tuple(tensor[x1][x2][y1][y2] for y1 in range(n) for y2 in range(n))
            for x1 in range(n)
            for x2 in range(n)
        )
        flat = Coupling(rows, left2.flatten(), right2.flatten())
        return cls(flat, left2, right2)

    def value(self, x1: int, x2: int, y1: int, y2: int) -> Fraction:
        n = len(self.alphabet)
        return self.flat.entry(x1 * n + x2, y1 * n + y2)

    def __getitem__(self, quad: tuple[str, str, str, str]) -> Fraction:
        x1, x2, y1, y2 = (self.alphabet.index(s) for s in quad)
        return self.value(x1, x2, y1, y2)


def vdist2(p2: Pmf2, q2: Pmf2) -> Fraction:
    """Variational distance between two-dim distributions (half-sum over A^2)."""
    require_same_alphabet(p2, q2)
    return vdist_halfsum(p2.flatten(), q2.flatten())


def coupling4_maximal(p2: Pmf2, q2: Pmf2) -> Coupling4:
    """Product-residual maximal coupling of pairs; pair mismatch equals vdist2."""
    require_same_alphabet(p2, q2)
    flat = coupling_maximal(p2.flatten(), q2.flatten())
    return Coupling4(flat, p2, q2)


def coupling4_independent(p2: Pmf2, q2: Pmf2) -> Coupling4:
    """Product coupling of pairs: j = P2(x1, x2) * Q2(y1, y2)."""
    require_same_alphabet(p2, q2)
    flat = coupling_independent(p2.flatten(), q2.flatten())
    return Coupling4(flat, p2, q2)


def coupling4_constrained(p2: Pmf2, q2: Pmf2) -> Coupling4:
    """The coupling forced by x1 = x2 = y1: j(a, a, a, b) = Q2(a, b), else 0.

    Requires P2 to be diagonal (x1 = x2 has probability 1) and each
    diagonal entry P2(a, a) to equal the first-coordinate marginal of Q2
    at a; otherwise no such coupling exists and the offending symbol is
    reported.  Flat row (a, a) lists the non-zero entries of Q2's row a
    as lowest-terms pairs, at columns (a, b); every other row lists
    nothing.  The rows reach :meth:`Coupling.over` marked as coprime, so
    no Fraction is built per cell.
    """
    require_same_alphabet(p2, q2)
    alphabet = p2.alphabet
    n = len(alphabet)
    for i in range(n):
        for k in range(n):
            if i != k and p2.p[i][k] != 0:
                raise ConstraintInfeasibleError(
                    "left distribution carries off-diagonal mass at "
                    f"({alphabet.symbols[i]},{alphabet.symbols[k]}); "
                    "the x1 = x2 constraint is unsatisfiable",
                    symbol=alphabet.symbols[i],
                )
    q_row_marginal = q2.row_marginal()
    for i, a in enumerate(alphabet):
        if p2.p[i][i] != q_row_marginal.p[i]:
            raise ConstraintInfeasibleError(
                f"P2({a},{a}) = {bounded_str(p2.p[i][i])} but the right first-coordinate "
                f"marginal at {a!r} is {bounded_str(q_row_marginal.p[i])}; "
                "the y1 = x1 constraint is unsatisfiable",
                symbol=a,
            )
    rows = [((), ())] * (n * n)
    for a, q_row in enumerate(q2.p):
        listed = [b for b, x in enumerate(q_row) if x]
        rows[a * n + a] = ([a * n + b for b in listed], [(q_row[b].numerator, q_row[b].denominator) for b in listed])
    flat = Coupling.over(_Coprime(rows), p2.flatten(), q2.flatten())
    return Coupling4(flat, p2, q2)


@dataclass(frozen=True)
class MismatchComponents:
    """Pair-level and second-coordinate mismatch probabilities.

    ``coord_mismatch <= pair_mismatch`` always, because x2 != y2 implies
    (x1, x2) != (y1, y2).
    """

    pair_mismatch: Fraction
    coord_mismatch: Fraction


def mismatch_components(c: Coupling4) -> MismatchComponents:
    """Both mismatch probabilities, from the flat coupling's ints.

    Flat row (x1, x2) meets x2 == y2 in columns (y1, x2), those equal to
    the row modulo N.  Only the cells the row lists are read, and of a
    dense row only every N-th from x2, so at most N^3 of the N^4 cells.
    """
    n = len(c.alphabet)
    flat = c.flat
    coord_match = 0
    for r, (columns, pairs) in enumerate(flat._rows):
        if len(pairs) == n * n:  # a dense row: its cells in columns (y1, x2) are every N-th from x2
            columns, pairs = columns[r % n::n], pairs[r % n::n]
        matched = [pair for column, pair in zip(columns, pairs) if column % n == r % n]
        coord_match += sum(ratios_over(flat.scale, matched))
    return MismatchComponents(
        pair_mismatch=mismatch_prob(flat),
        coord_mismatch=Fraction(flat.scale - coord_match, flat.scale),
    )
