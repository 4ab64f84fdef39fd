"""Variational distance between finite distributions, in both classic forms.

``vdist_halfsum`` is the working definition (half the L1 distance).
``vdist_subset`` evaluates the event-maximization form by enumerating all
2^N subsets; it exists as a deliberately brute-force internal oracle for
the half-sum form and is capped at small alphabets.  ``upper_set``
returns the event that attains the maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .distributions import ZERO, Pmf, joint_scaled, require_same_alphabet
from .errors import EnumerationLimitError

DEFAULT_SUBSET_LIMIT = 20


def vdist_halfsum(p: Pmf, q: Pmf) -> Fraction:
    """Half the sum of absolute pointwise differences. Exact, in [0, 1].

    Summed on ints: with D the common denominator of both vectors
    (:func:`~couplingkit.distributions.joint_scaled`), the distance is
    sum(|P_i * D - Q_i * D|) over 2D.
    """
    require_same_alphabet(p, q)
    n = len(p.p)
    scale, ints = joint_scaled(p, q)
    return Fraction(sum(map(abs, map(sub, ints[:n], ints[n:]))), 2 * scale)


def vdist_subset(p: Pmf, q: Pmf, limit: int = DEFAULT_SUBSET_LIMIT) -> Fraction:
    """Maximum of P(S) - Q(S) over all subsets S of the alphabet.

    Enumerates all 2^N subsets by depth-first search over include/exclude
    choices, so it is restricted to N <= ``limit``.  Always equals
    :func:`vdist_halfsum`; kept brute-force on purpose as a cross-check.
    """
    require_same_alphabet(p, q)
    n = len(p.alphabet)
    if n > limit:
        raise EnumerationLimitError(
            f"subset enumeration needs 2^{n} subsets; limit is N <= {limit}"
        )
    diffs = [x - y for x, y in zip(p.p, q.p)]
    best = ZERO  # empty subset

    def explore(i: int, acc: Fraction) -> None:
        nonlocal best
        if i == n:
            if acc > best:
                best = acc
            return
        explore(i + 1, acc)
        explore(i + 1, acc + diffs[i])

    explore(0, ZERO)
    return best


@dataclass(frozen=True)
class UpperSet:
    """The event {b : P(b) >= Q(b)}, in alphabet order; attains the subset max."""

    members: tuple[str, ...]


def upper_set(p: Pmf, q: Pmf) -> UpperSet:
    """Symbols where P(b) >= Q(b); ties included, making the set deterministic.

    Guarantees ``P(B) - Q(B) == vdist_halfsum(p, q)``.
    """
    require_same_alphabet(p, q)
    members = tuple(s for s, x, y in zip(p.alphabet, p.p, q.p) if x >= y)
    return UpperSet(members)
