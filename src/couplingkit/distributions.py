"""Alphabets and validated finite probability distributions.

All values are immutable after construction and all probabilities are
exact :class:`~fractions.Fraction` entries.  A :class:`Pmf` is a
distribution over an ordered alphabet of string labels; a :class:`Pmf2`
is a distribution over ordered pairs from one alphabet, stored as an
N x N matrix (row = first coordinate) beside the flat :class:`Pmf` over
the product alphabet that validated it.  Matrix row/column order is the
alphabet order, fixed at construction, which keeps every table this
package emits deterministic and diff-able.

:func:`check_mass_ratios` is the one check of "non-negative entries with
an exact total of 1", on rows of (numerator, denominator) pairs of ints.
Each row lists (column, pair) for the entries it holds, so a sparse
row costs what it lists and a dense row lists every column.  It is a
sign pass that returns D and a total check; a :class:`Pmf` built from
a file's texts (``Pmf(alphabet, texts, literals)``) runs the two on its
distinct texts, one pair each, and takes its total over the cells with
``sum``.  Fractions reach it through :func:`fraction_ratios`, one
row-major pass that checks each entry's type and sign and reads its
pair: :class:`Pmf` (and so :class:`Pmf2`) on its one row, and
:class:`~couplingkit.coupling.Coupling` on its matrix.

The exact loops run on plain ints over one common denominator:
:func:`lcm_of` is the lcm of a set of denominators, :func:`ratios_over`
gives pairs times such a scale, and :func:`scaled` turns a vector of
Fractions into its lcm and those ints.  :func:`check_mass_ratios`
returns the lcm with its row and column sums, which
:class:`~couplingkit.coupling.Coupling` checks against its marginals;
a :class:`Fraction` is built only for an error message.  A :class:`Pmf`
keeps what its validation computed, D and its entries times D, and
:func:`joint_scaled` puts two distributions over one D from those
ints, so no consumer scales a distribution again.

Zero-probability symbols are allowed: structural zeros are part of the
worked examples this package reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import lcm
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import AlphabetMismatchError, DistributionError
from .rational import bounded_str

ZERO = Fraction(0)
ONE = Fraction(1)
ZERO_PAIR = (0, 1)  # zero as a lowest-terms (numerator, denominator) pair, shared by every zero entry


@dataclass(frozen=True)
class Alphabet:
    """Ordered, pairwise-distinct string labels; order defines matrix indexing."""

    symbols: tuple[str, ...]

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        if not syms:
            raise DistributionError("alphabet must contain at least one symbol")
        if not all(map(isinstance, syms, repeat(str))):
            raise DistributionError("alphabet symbols must be strings")
        positions = dict(zip(syms, range(len(syms))))
        if len(positions) != len(syms):
            raise DistributionError("alphabet symbols must be pairwise distinct")
        object.__setattr__(self, "symbols", syms)
        # Not a dataclass field, so == and hash still compare symbols alone.
        object.__setattr__(self, "_positions", positions)

    @classmethod
    def of_size(cls, n: int) -> "Alphabet":
        """Alphabet ``"1", "2", ..., "n"``."""
        if n < 1:
            raise DistributionError("alphabet size must be >= 1")
        return cls(str(i) for i in range(1, n + 1))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._positions[symbol]
        except (KeyError, TypeError):
            raise KeyError(f"symbol {symbol!r} not in alphabet") from None

    def pair_label(self, first: str, second: str) -> str:
        return f"({first},{second})"

    def product(self) -> "Alphabet":
        """Alphabet of ordered pairs ``"(a,b)"`` in row-major order."""
        labels = tuple(self.pair_label(a, b) for a in self.symbols for b in self.symbols)
        if len(set(labels)) != len(labels):
            # Only possible when symbols themselves contain "," delimiters
            # that make distinct pairs collide.
            raise DistributionError("pair labels collide; rename alphabet symbols")
        return Alphabet(labels)


def require_same_alphabet(left: "Pmf | Pmf2", right: "Pmf | Pmf2") -> None:
    if left.alphabet != right.alphabet:
        raise AlphabetMismatchError(
            "distributions are defined on different alphabets: "
            f"{left.alphabet.symbols} vs {right.alphabet.symbols}"
        )


def lcm_of(denominators: Iterable[int]) -> int:
    """The lcm of distinct positive ints; 1 when there are none.

    The lcm is taken pairwise over a balanced tree, so both operands of
    each step grow together.  Folding the denominators in one at a time
    would multiply an ever longer lcm by each one in turn, which is
    quadratic in the lcm's length when the denominators are coprime.
    """
    layer = list(denominators)
    while len(layer) > 1:
        # An odd layer carries its last element up unpaired.
        layer = [*map(lcm, layer[::2], layer[1::2]), *layer[len(layer) & ~1 :]]
    return layer[0] if layer else 1


def scaled(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """D, the lcm of the denominators of ``values``, and each value times D as an int."""
    scale = lcm_of({x.denominator for x in values})
    return scale, [x.numerator * (scale // x.denominator) if x.numerator else 0 for x in values]


def joint_scaled(p: "Pmf", q: "Pmf", scale: int = 0) -> tuple[int, list[int]]:
    """``scaled(p.p + q.p)``, from the ints each distribution keeps.

    D is lcm(D_P, D_Q), or ``scale`` when given, a common multiple of
    both; each side's ints are multiplied by D over that side's D.
    """
    (dp, x), (dq, y) = p._scaled, q._scaled
    scale = scale or lcm(dp, dq)
    fp, fq = scale // dp, scale // dq
    return scale, [a * fp for a in x] + [b * fq for b in y]


def ratios_over(scale: int, pairs: Iterable[tuple[int, int]]) -> Iterator[int]:
    """Each (numerator, denominator) pair times ``scale``, as an int (0 without a division for a zero)."""
    return (x * (scale // d) if x else 0 for x, d in pairs)


def fraction_ratios(
    rows: Sequence[Sequence[Fraction]],
    label: Callable[[int], str],
    error: Callable[[str, str], Exception],
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The Fractions of ``rows`` as (numerator, denominator) pairs, in lowest terms.

    One row-major pass checks each entry's type and then its sign, and
    raises the first failure as ``error(message, constraint)`` with
    ``constraint`` ``"shape"`` (not a Fraction) or ``"negative_entry"``;
    ``label(k)`` names the ``k``-th entry in that order.
    """
    k = 0
    ratios = []
    for row in rows:
        pairs = []
        for value in row:
            if not isinstance(value, Fraction):
                raise error(f"{label(k)} must be a Fraction, got {type(value).__name__}", "shape")
            if value.numerator < 0:
                raise error(f"{label(k)} is negative: {bounded_str(value)}", "negative_entry")
            pairs.append((value.numerator, value.denominator) if value.numerator else ZERO_PAIR)
            k += 1
        ratios.append(tuple(pairs))
    return tuple(ratios)


def _check_signs(
    rows: Sequence[tuple[Sequence[int], Sequence[tuple[int, int]]]],
    width: int,
    label: Callable[[int], str],
    error: Callable[[str, str], Exception],
) -> int:
    """The sign pass of :func:`check_mass_ratios`: raise on the first negative entry, then return D."""
    for i, (columns, pairs) in enumerate(rows):
        for column, (x, d) in zip(columns, pairs):
            if x < 0:
                raise error(
                    f"{label(i * width + column)} is negative: {bounded_str(Fraction(x, d))}", "negative_entry"
                )
    return lcm_of({d for _, pairs in rows for x, d in pairs if x})


def _check_total(total: int, scale: int, error: Callable[[str, str], Exception]) -> None:
    """The total check of :func:`check_mass_ratios`: ``total`` over ``scale`` must be 1."""
    if total != scale:
        raise error(
            f"probabilities sum to {bounded_str(Fraction(total, scale))}, expected 1",
            "total_mass",
        )


def check_mass_ratios(
    rows: Sequence[tuple[Sequence[int], Sequence[tuple[int, int]]]],
    width: int,
    label: Callable[[int], str],
    error: Callable[[str, str], Exception],
) -> tuple[int, list[int], list[int]]:
    """Check that the (numerator, denominator) pairs of ``rows`` are non-negative with an exact total of 1.

    Each row is (columns, pairs): ``pairs[k]`` sits at column
    ``columns[k]``, the columns strictly increasing below ``width``, and
    an entry not listed is zero (a dense row lists ``range(width)``).
    The first failure, the sign of each entry in row-major order and then
    the total, is raised as ``error(message, constraint)`` with
    ``constraint`` ``"negative_entry"`` or ``"total_mass"``; ``label(k)``
    names the entry at row ``k // width``, column ``k % width``.
    Denominators must be positive; a pair need not be reduced.  Returns D,
    the lcm of the non-zero entries' denominators as given (so an
    unreduced pair can make it larger than the entries need, never a zero
    entry), with every row sum and column sum times D.  Each listed entry
    is scaled once, one row of ints held at a time: O(width + listed).
    """
    scale = _check_signs(rows, width, label, error)
    row_sums = []
    sums = [0] * width
    for columns, pairs in rows:
        ints = list(ratios_over(scale, pairs))
        row_sums.append(sum(ints))
        if len(ints) == width:
            sums = list(map(add, sums, ints))
        else:
            for column, x in zip(columns, ints):
                sums[column] += x
    _check_total(sum(row_sums), scale, error)
    return scale, row_sums, sums


def _distribution_error(message: str, constraint: str) -> DistributionError:
    return DistributionError(message)


@dataclass(frozen=True)
class Pmf:
    """Probability distribution over an alphabet: entries >= 0, exact sum 1.

    ``probs`` are Fractions, or, with ``literals``, texts that each
    ``literals[text]``, a Fraction, stands for; a distribution file
    arrives that way.  Then the sign, D and each entry times D are
    taken once per distinct text, in the order of its first cell, so
    the first negative text is the first negative cell's.  Validation
    keeps ``_scaled``: D, the lcm of the denominators, and the entries
    times D as ints.
    """

    alphabet: Alphabet
    p: tuple[Fraction, ...]

    def __init__(self, alphabet: Alphabet, probs: Sequence, literals: Mapping[str, Fraction] | None = None):
        texts = tuple(probs)
        entries = texts if literals is None else tuple(map(literals.__getitem__, texts))
        n = len(entries)
        if n != len(alphabet):
            raise DistributionError(
                f"expected {len(alphabet)} probabilities, got {n}"
            )
        label = lambda k: f"p({alphabet.symbols[k]})"
        if literals is None:
            (pairs,) = fraction_ratios((entries,), label, _distribution_error)
            scale, _, ints = check_mass_ratios(((range(n), pairs),), n, label, _distribution_error)
        else:
            distinct = dict.fromkeys(texts)
            pairs = list(map(Fraction.as_integer_ratio, map(literals.__getitem__, distinct)))
            first = lambda k: label(texts.index(list(distinct)[k]))
            scale = _check_signs(((range(len(pairs)), pairs),), len(pairs), first, _distribution_error)
            ints = list(map(dict(zip(distinct, ratios_over(scale, pairs))).__getitem__, texts))
            _check_total(sum(ints), scale, _distribution_error)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "p", entries)
        # Not a dataclass field, so ==, hash and repr still see alphabet and p alone.
        object.__setattr__(self, "_scaled", (scale, ints))

    @cached_property
    def _scaled(self) -> tuple[int, list[int]]:
        """D and the entries times D, for a copy that skipped validation (which stores them); read only."""
        return scaled(self.p)

    @classmethod
    def uniform(cls, alphabet: Alphabet) -> "Pmf":
        n = len(alphabet)
        return cls(alphabet, (Fraction(1, n),) * n)

    @classmethod
    def point_mass(cls, alphabet: Alphabet, symbol: str) -> "Pmf":
        i = alphabet.index(symbol)
        return cls(alphabet, tuple(ONE if k == i else ZERO for k in range(len(alphabet))))

    def __getitem__(self, symbol: str) -> Fraction:
        return self.p[self.alphabet.index(symbol)]

    def mass(self, symbols: Iterable[str]) -> Fraction:
        """Total probability of a set of symbols (each counted once)."""
        idx = {self.alphabet.index(s) for s in symbols}
        return sum((self.p[i] for i in idx), ZERO)

    def support(self) -> tuple[str, ...]:
        return tuple(s for s, v in zip(self.alphabet, self.p) if v > 0)


@dataclass(frozen=True)
class Pmf2:
    """Distribution over ordered pairs, as an N x N matrix (row = first coordinate).

    ``matrix`` holds Fractions, or texts with ``literals`` as for
    :class:`Pmf`, which validates the flat row-major form.
    """

    alphabet: Alphabet
    p: tuple[tuple[Fraction, ...], ...]

    def __init__(
        self, alphabet: Alphabet, matrix: Sequence[Sequence], literals: Mapping[str, Fraction] | None = None
    ):
        n = len(alphabet)
        rows = tuple(tuple(row) for row in matrix)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise DistributionError(f"expected a {n}x{n} matrix of probabilities")
        flat = Pmf(alphabet.product(), list(chain.from_iterable(rows)), literals)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "p", tuple(flat.p[i : i + n] for i in range(0, n * n, n)))
        # Not a dataclass field, so ==, hash and repr still see alphabet and p alone.
        object.__setattr__(self, "_flat", flat)

    @classmethod
    def diagonal(cls, pmf: Pmf) -> "Pmf2":
        """Two-dim distribution with both coordinates equal, weighted by ``pmf``."""
        n = len(pmf.alphabet)
        rows = tuple(
            tuple(pmf.p[i] if i == j else ZERO for j in range(n)) for i in range(n)
        )
        return cls(pmf.alphabet, rows)

    def __getitem__(self, pair: tuple[str, str]) -> Fraction:
        a, b = pair
        return self.p[self.alphabet.index(a)][self.alphabet.index(b)]

    def is_diagonal(self) -> bool:
        n = len(self.alphabet)
        return all(self.p[i][j] == 0 for i in range(n) for j in range(n) if i != j)

    def row_marginal(self) -> Pmf:
        return Pmf(self.alphabet, tuple(sum(row, ZERO) for row in self.p))

    def column_marginal(self) -> Pmf:
        n = len(self.alphabet)
        return Pmf(self.alphabet, tuple(sum((self.p[i][j] for i in range(n)), ZERO) for j in range(n)))

    def flatten(self) -> Pmf:
        """Same distribution over the product alphabet, entries in row-major order."""
        return self._flat
