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

Both builders form each cell as a (numerator, denominator) pair of ints
already in lowest terms: the full-size gcds run once per row and once
per column, and a cell pays at most a gcd with a small cofactor, none
when that cofactor is 1.  They hand the pairs to :meth:`Coupling.over`
marked as coprime, so no Fraction is built per cell.  A
:class:`Coupling` holds its entries in one form: each row lists
(column, pair) for the entries it holds, the pairs (numerator,
denominator) ints, and an entry not listed is zero.  A dense row lists
every column, as ``range(N)``: the Fractions given to
``Coupling(j, left, right)``, and a row of a builder or of a coupling
file that has no zero cell.  Every other row lists only its non-zero
cells: the builders emit no zero pair, a coupling file's literal
``"0"`` is left out (:mod:`~couplingkit.jsonio`), and the
transportation simplex lists only its non-zero flows, so a coupling
costs O(N + listed cells) to hold and to validate.  Validation and the readers,
:meth:`Coupling.diagonal_mass`, :func:`mismatch_prob` and
:func:`lemma_audit`, sum the entries they read as ints over D, the lcm
of the denominators, and build one Fraction per result; the Fractions
of a pair-built coupling are made only when ``j`` is first read, with
no gcd per cell for a builder's.  The coupling-file writer
(:func:`~couplingkit.jsonio.coupling_json`) reads the listed entries as
lowest-terms pairs, which a builder's coupling, and one built from
Fractions, passes through as they are, and writes ``"0"`` for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from bisect import bisect_left
from itertools import repeat
from math import gcd
from operator import lt, sub
from typing import Iterator, Sequence

from .distributions import (
    ONE,
    ZERO,
    ZERO_PAIR,
    Alphabet,
    Pmf,
    check_mass_ratios,
    fraction_ratios,
    joint_scaled,
    ratios_over,
    require_same_alphabet,
)
from .errors import CorruptedCouplingError, CouplingError
from .metrics import vdist_halfsum
from .rational import _reduced, bounded_str

Matrix = tuple[tuple[Fraction, ...], ...]
Rows = Sequence[tuple[Sequence[int], Sequence[tuple[int, int]]]]


class _Ratios(tuple):
    """The rows handed to :meth:`Coupling.over`, marked for the constructor.

    Each row is (columns, pairs) in the coupling's one entry form.
    """

    coprime = False


class _Coprime(_Ratios):
    """Rows whose every pair is in lowest terms, with zero as ``(0, 1)``, marked as such by a builder."""

    coprime = True


@dataclass(frozen=True, eq=False, repr=False)
class Coupling:
    """Validated joint distribution with cached marginals (row = x, column = y).

    The entries are held in one form: each row is (columns, pairs), the
    (numerator, denominator) pairs of ints at strictly increasing
    columns, and an entry a row does not list is zero.  A dense row lists
    every column, as ``range(N)``; that is the form of the Fractions
    ``j`` given to ``Coupling(j, left, right)``, which keeps ``j`` as it
    is, and of the rows given to :meth:`over`, which builds ``j`` when it
    is first read.  ``scale`` is D, the lcm of the non-zero entries'
    denominators; the readers scale the entries they read by D, so no
    N x N array of ints over D is ever kept.  Equality and hashing
    compare ``j`` and the marginals, so they do not depend on the
    constructor, the form of the rows or D.

    Construction raises :class:`CouplingError` naming the first failed
    constraint: the shape, each entry's type (Fraction entries,
    :func:`~couplingkit.distributions.fraction_ratios`) and sign and the
    total mass (:func:`~couplingkit.distributions.check_mass_ratios`),
    then every row marginal, then every column marginal.  The sums run on
    ints over D, each listed entry scaled once and one row of ints held
    at a time, in O(N + listed entries).
    """

    alphabet: Alphabet
    scale: int
    left: Pmf
    right: Pmf

    def __init__(self, j: Sequence[Sequence[Fraction]], left: Pmf, right: Pmf):
        require_same_alphabet(left, right)
        n = len(left.alphabet)
        label = _entry_label(left)
        if isinstance(j, _Ratios):
            rows, coprime = tuple((columns, tuple(pairs)) for columns, pairs in j), j.coprime
            if len(rows) != n or not all(_fits(columns, pairs, n) for columns, pairs in rows):
                raise CouplingError(f"joint matrix must be {n}x{n}", constraint="shape")
        else:
            dense = tuple(tuple(row) for row in j)
            if len(dense) != n or any(len(row) != n for row in dense):
                raise CouplingError(f"joint matrix must be {n}x{n}", constraint="shape")
            # A Fraction is in lowest terms, with zero as 0/1; the rows given stay as ``j``.
            rows, coprime = tuple(zip(repeat(range(n)), fraction_ratios(dense, label, CouplingError))), True
            object.__setattr__(self, "j", dense)
        scale, row_sums, columns = check_mass_ratios(rows, n, label, CouplingError)
        _check_marginals(scale, row_sums, columns, left, right)
        fields = dict(alphabet=left.alphabet, scale=scale, left=left, right=right, _rows=rows, _coprime=coprime)
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @classmethod
    def over(cls, rows: Rows, left: Pmf, right: Pmf) -> "Coupling":
        """The coupling whose row a lists the entries ``rows[a]``, in the one entry form.

        Each row is (columns, pairs): the columns strictly increasing, each
        (numerator, denominator) pair of ints with a positive denominator
        and not necessarily reduced, and every entry a row does not list
        zero.  The constructor runs its checks in its order, with its
        messages, on the ints
        (:func:`~couplingkit.distributions.check_mass_ratios`).  Rows a
        builder marked as coprime keep the mark.
        """
        return cls(rows if isinstance(rows, _Ratios) else _Ratios(rows), left, right)

    @cached_property
    def j(self) -> Matrix:
        """The entries as Fractions; zero entries are ``ZERO``."""
        fraction = _reduced if self._coprime else Fraction
        n = len(self.alphabet)
        return tuple(
            tuple(_dense(columns, [fraction(x, d) if x else ZERO for x, d in pairs], n, ZERO))
            for columns, pairs in self._rows
        )

    def _pairs(self) -> Iterator[tuple[Sequence[int], Sequence[tuple[int, int]]]]:
        """The rows as (columns, pairs), the pairs in lowest terms; zero is ``(0, 1)``.

        Pairs marked coprime, a builder's or a Fraction's, are read as
        they are, and other pairs are reduced one non-zero entry at a time.
        """
        if self._coprime:
            return iter(self._rows)
        return ((columns, [_lowest_terms(x, d) for x, d in pairs]) for columns, pairs in self._rows)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.j, self.left, self.right) == (other.j, other.left, other.right)

    def __hash__(self) -> int:
        return hash((self.j, self.left, self.right))

    def __repr__(self) -> str:
        return (
            f"Coupling(alphabet={self.alphabet!r}, j={self.j!r}, "
            f"left={self.left!r}, right={self.right!r})"
        )

    def _pair(self, row: int, column: int) -> tuple[int, int]:
        """The pair at (``row``, ``column``) as held; ``ZERO_PAIR`` where the row lists no entry."""
        columns, pairs = self._rows[row]
        if len(pairs) == len(self.alphabet):  # a dense row
            return pairs[column]
        k = bisect_left(columns, column)
        return pairs[k] if k < len(columns) and columns[k] == column else ZERO_PAIR

    def entry(self, row: int, column: int) -> Fraction:
        """The entry at row index ``row`` and column index ``column``."""
        return Fraction(*self._pair(row, column))

    def __getitem__(self, pair: tuple[str, str]) -> Fraction:
        return self.entry(*map(self.alphabet.index, pair))

    def diagonal(self) -> tuple[Fraction, ...]:
        """The diagonal entries j(a, a), in alphabet order."""
        return tuple(map(self.entry, range(len(self.alphabet)), range(len(self.alphabet))))

    def diagonal_ints(self) -> list[int]:
        """The diagonal entries j(a, a) times ``scale``, as ints, in alphabet order."""
        n = len(self.alphabet)
        return list(ratios_over(self.scale, map(self._pair, range(n), range(n))))

    def diagonal_mass(self) -> Fraction:
        return Fraction(sum(self.diagonal_ints()), self.scale)


def _fits(columns: Sequence[int], pairs: Sequence, n: int) -> bool:
    """Whether a row lists one pair per column, the columns strictly increasing in 0..n-1."""
    if len(columns) != len(pairs):
        return False
    if isinstance(columns, range):
        return columns == range(n)
    return not columns or (0 <= columns[0] and columns[-1] < n and all(map(lt, columns, columns[1:])))


def _dense(columns: Sequence[int], values: list, n: int, zero) -> list:
    """The ``n`` entries of a row that lists ``values`` at ``columns``, ``zero`` elsewhere."""
    if len(values) == n:
        return values
    row = [zero] * n
    for column, value in zip(columns, values):
        row[column] = value
    return row


def _check_marginals(scale: int, row_sums, columns, left: Pmf, right: Pmf) -> None:
    """Check the row and column sums, ints over ``scale``, against the marginals."""
    symbols = left.alphabet.symbols
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


def _lowest_terms(x: int, d: int) -> tuple[int, int]:
    if not x:
        return ZERO_PAIR
    g = gcd(x, d)
    return x // g, d // g


def _entry_label(left: Pmf):
    symbols = left.alphabet.symbols
    n = len(symbols)
    return lambda k: f"entry ({symbols[k // n]},{symbols[k % n]})"


def coupling_independent(p: Pmf, q: Pmf) -> Coupling:
    """The product coupling j(a, b) = P(a) * Q(b); a zero factor gives a zero cell, which is not listed.

    Row a lists supp(Q), as ``range(N)`` when Q has no zero, and a row
    with P(a) = 0 lists nothing.

    For P(a) = x/y and Q(b) = u/v, both reduced, the cell is
    (x/g1)(u/g2) / ((y/g2)(v/g1)) with g1 = gcd(x, v) and g2 = gcd(u, y).
    As v divides L_Q, the lcm of Q's denominators, g1 = gcd(gcd(x, L_Q), v),
    and likewise g2 = gcd(gcd(u, L_P), y): the full-size gcds run once per
    row and once per column, and a cell's gcd only when its cofactor is not 1.
    """
    require_same_alphabet(p, q)
    lcm_p = p._scaled[0]
    lcm_q = q._scaled[0]
    n = len(q.p)
    factors = [(y.numerator, y.denominator, gcd(y.numerator, lcm_p)) for y in q.p if y]
    listed = range(n) if len(factors) == n else [b for b, y in enumerate(q.p) if y]
    rows = []
    for x in p.p:
        if x:
            a, b = x.numerator, x.denominator
            g = gcd(a, lcm_q)
            rows.append((listed, tuple(_product(a, b, g, *factor) for factor in factors)))
        else:
            rows.append(((), ()))
    return Coupling.over(_Coprime(rows), p, q)


def _product(a: int, b: int, g: int, c: int, d: int, h: int) -> tuple[int, int]:
    """(a / b) * (c / d) as a lowest-terms pair, for a / b and c / d in lowest terms, d > 0, b > 0.

    ``g`` is gcd(a, L) for a multiple L of d, and ``h`` is gcd(c, L') for
    a multiple L' of b; each takes one more gcd only when it is not 1.
    """
    if g != 1:
        g = gcd(g, d)
        a //= g
        d //= g
    if h != 1:
        h = gcd(h, b)
        c //= h
        b //= h
    return a * c, b * d


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
    j(a, b) = rx(a) * ry(b) / mismatch for a != b, or zero when either
    factor is 0.  On P, Q, rx, ry and the mismatch m times D, their common
    denominator, that cell is rx(a) * ry(b) / M with M = m * D.  As
    gcd(x * y, M) = gcd(x, M) * gcd(y, M / gcd(x, M)), it is built reduced
    from g = gcd(rx(a), M) per row, h = gcd(ry(b), M) per column and, when
    h != 1, e = gcd(h, M / g) per cell.  A negative m, which only an
    unvalidated :class:`Pmf` gives, takes the pair ``(-rx(a) * ry(b), -M)``,
    which puts the sign on the numerator for validation to reject.

    Only the non-zero cells are listed.  The support of ry and its column
    gcds are found once; a row with rx(a) > 0 lists that support, with its
    diagonal inserted in column order (ry(a) is then 0, so column a is
    not in it), and every other row lists its diagonal alone.  A zero
    diagonal is not listed.
    """
    require_same_alphabet(p, q)
    n = len(p.p)
    scale, ints = joint_scaled(p, q)
    left, right = ints[:n], ints[n:]
    overlap = [x if x < y else y for x, y in zip(left, right)]
    m = scale - sum(overlap)
    ry = list(map(sub, right, overlap))
    denominator = m * scale
    support = [b for b, y in enumerate(ry) if y]
    factors = [(ry[b], gcd(ry[b], denominator)) for b in support]
    rows = []
    for i, (x, y, a, d) in enumerate(zip(p.p, q.p, left, overlap)):
        rx = a - d
        listed = list(support) if rx and m else []
        if rx and m > 0:
            g = gcd(rx, denominator)
            factor, rest = rx // g, denominator // g
            row = [_product(factor, rest, 1, b, 1, h) for b, h in factors]
        elif rx and m < 0:  # a negative cell: validation rejects the rows, mark and all
            row = [(-rx * b, -denominator) for b, _ in factors]
        else:
            row = []
        diagonal = y if rx else x  # rx == 0 iff P(a) <= Q(a)
        if diagonal:  # rx > 0 leaves ry(a) == 0, so column a is not in the support
            k = bisect_left(listed, i)
            listed.insert(k, i)
            row.insert(k, (diagonal.numerator, diagonal.denominator))
        rows.append((listed, row))
    return Coupling.over(_Coprime(rows), p, q)


def maximal_diagonal(p: Pmf, q: Pmf) -> tuple[Fraction, ...]:
    """Diagonal of :func:`coupling_maximal`, after checking that coupling in O(N).

    Puts P and Q over D, their common denominator
    (:func:`~couplingkit.distributions.joint_scaled`), and runs
    :func:`check_maximal` on the ints; each diagonal entry, min{P, Q},
    is then picked from P or Q by comparing those ints.  Raises
    :class:`CorruptedCouplingError` naming the first failed check;
    validated :class:`Pmf` inputs never trigger it.
    """
    require_same_alphabet(p, q)
    n = len(p.p)
    scale, ints = joint_scaled(p, q)
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

    Each per-symbol loop runs only when its sums say it can fail, so a
    coupling that passes costs a few C-level passes.  rx and ry are P and
    Q less their pointwise minimum, so both are non-negative and one of
    them is 0 at every symbol: the first loop can fail only at a negative
    overlap, and runs only when there is one.  The marginal loop can fail
    only where ``sum(rx)`` or ``sum(ry)`` differs from m, and is skipped
    when neither does.  Those sums are ``sum(P)`` and ``sum(Q)`` less the
    overlap's, so rx and ry are formed only inside a loop that runs.
    """
    overlap = [x if x < y else y for x, y in zip(p, q)]
    total = sum(overlap)
    m = scale - total
    if m < 0:
        raise CorruptedCouplingError(
            f"maximal coupling: residual mass {bounded_str(Fraction(m, scale))} is negative"
        )
    if min(overlap, default=0) < 0:
        for a, d, x, y in zip(symbols, overlap, map(sub, p, overlap), map(sub, q, overlap)):
            if d < 0 or x < 0 or y < 0:
                raise CorruptedCouplingError(f"maximal coupling: negative factor at {a!r}")
            if x and y:
                raise CorruptedCouplingError(f"maximal coupling: rx * ry != 0 at {a!r}")
    if m == 0:
        if not overlap == p == q:
            raise CorruptedCouplingError("maximal coupling: zero residual mass but P != Q")
        return m
    sx = sum(p) - total
    sy = sum(q) - total
    if sx * sy != m * m:
        raise CorruptedCouplingError("maximal coupling: total mass is not 1")
    if sx == m == sy:
        return m
    # d + rx == P holds by the definition of rx, so row a sums to
    # d + rx * sy / m == P iff rx == 0 or sy == m; likewise column a.
    for a, x, y in zip(symbols, map(sub, p, overlap), map(sub, q, overlap)):
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
            f"coupling inequality violated: v={bounded_str(v)} > mismatch={bounded_str(m)}"
        )
    return LemmaAudit(v=v, mismatch=m, holds=True, maximal=(v == m), gap=m - v)
