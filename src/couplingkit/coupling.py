"""Couplings of two distributions on a shared alphabet.

A coupling is a joint distribution on A x A whose row marginal is the
left distribution and whose column marginal is the right one.  The
coupling inequality says the variational distance v(P, Q) lower-bounds
the mismatch probability Pr{x != y} under every coupling, with equality
attained by a maximal coupling.

:func:`coupling_maximal` builds the product-residual maximal coupling:
the diagonal keeps the pointwise overlap min{P(a), Q(a)}, and the
leftover row/column masses (the residuals) are spread off-diagonal in
product form, normalized by the total residual mass.  Maximal couplings
are not unique in general; this particular construction is fixed so that
its output matrices are reproducible entry-for-entry.

Both run on ints over one common denominator: the builder scales P and Q
once and pays one reduced Fraction per non-zero cell, and :class:`Coupling`
validation scales each non-zero entry once, in one pass over the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Sequence

from .distributions import (
    ONE,
    ZERO,
    Alphabet,
    Pmf,
    check_mass_rows,
    require_same_alphabet,
    scaled,
)
from .errors import CorruptedCouplingError, CouplingError
from .metrics import vdist_halfsum
from .rational import bounded_str

Matrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class Coupling:
    """Validated joint distribution with cached marginals (row = x, column = y).

    Construction raises :class:`CouplingError` naming the first failed
    constraint: the shape, each entry's type and sign and the total mass
    (:func:`~couplingkit.distributions.check_mass_rows`), then every row
    marginal, then every column marginal.  The sums run on ints over D,
    the entries' common denominator, in one pass that scales each
    non-zero entry once and holds one row of ints at a time.
    """

    alphabet: Alphabet
    j: Matrix
    left: Pmf
    right: Pmf

    def __init__(self, j: Sequence[Sequence[Fraction]], left: Pmf, right: Pmf):
        require_same_alphabet(left, right)
        alphabet = left.alphabet
        n = len(alphabet)
        rows = tuple(tuple(row) for row in j)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise CouplingError(f"joint matrix must be {n}x{n}", constraint="shape")
        symbols = alphabet.symbols
        scale, row_sums, columns = check_mass_rows(
            rows,
            lambda k: f"entry ({symbols[k // n]},{symbols[k % n]})",
            CouplingError,
        )
        # sum / scale == x is checked as sum * x.denominator == x.numerator * scale.
        for a, row_sum, x in zip(symbols, row_sums, left.p):
            if row_sum * x.denominator != x.numerator * scale:
                raise CouplingError(
                    f"row marginal at {a!r} is {bounded_str(Fraction(row_sum, scale))}, "
                    f"expected {bounded_str(x)}",
                    constraint="row_marginal",
                    symbol=a,
                )
        for b, col_sum, y in zip(symbols, columns, right.p):
            if col_sum * y.denominator != y.numerator * scale:
                raise CouplingError(
                    f"column marginal at {b!r} is {bounded_str(Fraction(col_sum, scale))}, "
                    f"expected {bounded_str(y)}",
                    constraint="column_marginal",
                    symbol=b,
                )
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "j", rows)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __getitem__(self, pair: tuple[str, str]) -> Fraction:
        a, b = pair
        return self.j[self.alphabet.index(a)][self.alphabet.index(b)]

    def diagonal_mass(self) -> Fraction:
        return sum((self.j[i][i] for i in range(len(self.alphabet))), ZERO)


def coupling_independent(p: Pmf, q: Pmf) -> Coupling:
    """The product coupling j(a, b) = P(a) * Q(b)."""
    require_same_alphabet(p, q)
    rows = tuple(tuple(x * y for y in q.p) for x in p.p)
    return Coupling(rows, p, q)


@dataclass(frozen=True)
class Residuals:
    """Leftover marginal mass after removing the pointwise overlap.

    ``rx(a) = P(a) - min{P(a), Q(a)}`` and likewise ``ry`` for Q.  Both
    sum to the minimal mismatch probability, and ``rx(a) * ry(a) == 0``
    pointwise (at each symbol at most one marginal exceeds the overlap).
    """

    rx: tuple[Fraction, ...]
    ry: tuple[Fraction, ...]
    mismatch: Fraction


def residuals(p: Pmf, q: Pmf) -> Residuals:
    require_same_alphabet(p, q)
    overlap = [min(x, y) for x, y in zip(p.p, q.p)]
    rx = tuple(x - m for x, m in zip(p.p, overlap))
    ry = tuple(y - m for y, m in zip(q.p, overlap))
    mismatch = ONE - sum(overlap, ZERO)
    return Residuals(rx=rx, ry=ry, mismatch=mismatch)


def coupling_maximal(p: Pmf, q: Pmf) -> Coupling:
    """Product-residual maximal coupling; mismatch equals vdist_halfsum(p, q).

    Diagonal: j(a, a) = min{P(a), Q(a)}.  If the residual mass is zero
    (P == Q) every off-diagonal entry is zero; otherwise
    j(a, b) = rx(a) * ry(b) / mismatch for a != b.  On P, Q, rx, ry and
    the mismatch m times D, their common denominator, that cell is one
    ``Fraction(rx(a) * ry(b), m * D)``, or ``ZERO`` when either factor is 0.
    """
    require_same_alphabet(p, q)
    n = len(p.p)
    scale, ints = scaled(p.p + q.p)
    left, right = ints[:n], ints[n:]
    overlap = list(map(min, left, right))
    m = scale - sum(overlap)
    ry = list(map(sub, right, overlap))
    denominator = m * scale
    rows = []
    for i, (x, y, a, d) in enumerate(zip(p.p, q.p, left, overlap)):
        rx = a - d
        if rx and m:
            row = [Fraction(rx * b, denominator) if b else ZERO for b in ry]
        else:
            row = [ZERO] * n
        row[i] = y if rx else x  # rx == 0 iff P(a) <= Q(a)
        rows.append(row)
    return Coupling(rows, p, q)


def maximal_diagonal(p: Pmf, q: Pmf) -> tuple[Fraction, ...]:
    """Diagonal of :func:`coupling_maximal`, after checking that coupling in O(N).

    Scales P and Q once by D, their common denominator, and runs
    :func:`check_maximal` on the ints; each diagonal entry, min{P, Q},
    is then picked from P or Q by comparing those ints.  Raises
    :class:`CorruptedCouplingError` naming the first failed check;
    validated :class:`Pmf` inputs never trigger it.
    """
    require_same_alphabet(p, q)
    n = len(p.p)
    scale, ints = scaled(p.p + q.p)
    left, right = ints[:n], ints[n:]
    check_maximal(left, right, scale, p.alphabet.symbols)
    return tuple(x if a <= b else y for x, y, a, b in zip(p.p, q.p, left, right))


def check_maximal(p: list[int], q: list[int], scale: int, symbols: Sequence[str]) -> int:
    """Check the maximal coupling of P and Q in O(N); return its residual mass m.

    ``p`` and ``q`` are P and Q times ``scale``, a common multiple of
    their denominators, and m, the coupling's mismatch probability
    1 - sum(min{P, Q}), is returned times ``scale``.  The coupling is
    diag(min{P, Q}) plus ``rx(a) * ry(b) / m`` off the diagonal, so
    every check that :class:`Coupling` makes on the dense matrix has an
    O(N) form on these ints: the entries are non-negative iff the
    overlap, both residuals and ``m`` are; ``rx(a) * ry(a) == 0``, which
    the product form relies on; the total mass
    ``1 - m + sum(rx) * sum(ry) / m`` is 1; row ``a`` sums to
    ``min(a) + rx(a) * sum(ry) / m`` and column ``b`` to
    ``min(b) + ry(b) * sum(rx) / m``.  When ``m == 0`` the coupling is
    diagonal and the overlap must equal both marginals.  No two
    ``scale``-sized ints are multiplied per symbol.  Raises
    :class:`CorruptedCouplingError` naming the first failed check.
    """
    overlap = list(map(min, p, q))
    m = scale - sum(overlap)
    if m < 0:
        raise CorruptedCouplingError(
            f"maximal coupling: residual mass {Fraction(m, scale)} is negative"
        )
    rx = list(map(sub, p, overlap))
    ry = list(map(sub, q, overlap))
    for a, d, x, y in zip(symbols, overlap, rx, ry):
        if d < 0 or x < 0 or y < 0:
            raise CorruptedCouplingError(f"maximal coupling: negative factor at {a!r}")
        if x and y:
            raise CorruptedCouplingError(f"maximal coupling: rx * ry != 0 at {a!r}")
    if m == 0:
        if not overlap == p == q:
            raise CorruptedCouplingError("maximal coupling: zero residual mass but P != Q")
        return m
    sx = sum(rx)
    sy = sum(ry)
    if sx * sy != m * m:
        raise CorruptedCouplingError("maximal coupling: total mass is not 1")
    # d + rx == P holds by the definition of rx, so row a sums to
    # d + rx * sy / m == P iff rx == 0 or sy == m; likewise column a.
    for a, x, y in zip(symbols, rx, ry):
        if x and sy != m:
            raise CorruptedCouplingError(f"maximal coupling: row marginal at {a!r} is not P({a})")
        if y and sx != m:
            raise CorruptedCouplingError(f"maximal coupling: column marginal at {a!r} is not Q({a})")
    return m


def mismatch_prob(c: Coupling) -> Fraction:
    """Pr{x != y} under the coupling: one minus the diagonal mass."""
    return ONE - c.diagonal_mass()


@dataclass(frozen=True)
class LemmaAudit:
    """Comparison of a coupling's mismatch probability against v(left, right)."""

    v: Fraction
    mismatch: Fraction
    holds: bool
    maximal: bool
    gap: Fraction

    def to_json_dict(self) -> dict:
        return {
            "v": str(self.v),
            "mismatch": str(self.mismatch),
            "holds": self.holds,
            "maximal": self.maximal,
            "gap": str(self.gap),
        }


def lemma_audit(c: Coupling) -> LemmaAudit:
    """Check v <= mismatch for a validated coupling and report the gap.

    A violated inequality cannot come from user input (validation already
    passed), so it is raised as :class:`CorruptedCouplingError`.
    """
    v = vdist_halfsum(c.left, c.right)
    m = mismatch_prob(c)
    if v > m:
        raise CorruptedCouplingError(
            f"coupling inequality violated: v={v} > mismatch={m}"
        )
    return LemmaAudit(v=v, mismatch=m, holds=True, maximal=(v == m), gap=m - v)
