"""Fraction-only reference versions of the package's exact validators.

The package checks masses, coupling marginals and dual certificates on
ints over a common denominator.  These are the direct Fraction forms of
the same checks, with the same constraint order and the same messages;
the property tests require both to agree on every verdict.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from couplingkit.distributions import ONE, ZERO, require_same_alphabet
from couplingkit.errors import CouplingError, ShapeMismatchError
from couplingkit.rational import bounded_str


def check_mass(entries, label, error) -> int:
    """The same checks; on success, the lcm of every entry's denominator."""
    for k, value in enumerate(entries):
        if not isinstance(value, Fraction):
            raise error(f"{label(k)} must be a Fraction, got {type(value).__name__}", "shape")
        if value < 0:
            raise error(f"{label(k)} is negative: {bounded_str(value)}", "negative_entry")
    total = sum(entries, ZERO)
    if total != ONE:
        raise error(f"probabilities sum to {bounded_str(total)}, expected 1", "total_mass")
    return lcm(*(x.denominator for x in entries))


def validate_coupling(j, left, right):
    """Every check ``Coupling(j, left, right)`` makes, in its order; returns the rows."""
    require_same_alphabet(left, right)
    alphabet = left.alphabet
    n = len(alphabet)
    rows = tuple(tuple(row) for row in j)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise CouplingError(f"joint matrix must be {n}x{n}", constraint="shape")
    symbols = alphabet.symbols
    check_mass(
        [v for row in rows for v in row],
        lambda k: f"entry ({symbols[k // n]},{symbols[k % n]})",
        CouplingError,
    )
    for i, a in enumerate(alphabet):
        row_sum = sum(rows[i], ZERO)
        if row_sum != left.p[i]:
            raise CouplingError(
                f"row marginal at {a!r} is {bounded_str(row_sum)}, expected {bounded_str(left.p[i])}",
                constraint="row_marginal",
                symbol=a,
            )
    for jcol, b in enumerate(alphabet):
        col_sum = sum((rows[i][jcol] for i in range(n)), ZERO)
        if col_sum != right.p[jcol]:
            raise CouplingError(
                f"column marginal at {b!r} is {bounded_str(col_sum)}, expected {bounded_str(right.p[jcol])}",
                constraint="column_marginal",
                symbol=b,
            )
    return rows


def certify(c, cert, tp) -> bool:
    """Cell-by-cell dual feasibility, then primal == objective == dual."""
    n = len(tp.supply.alphabet)
    if len(c.alphabet) != n or len(cert.u) != n or len(cert.v) != n:
        raise ShapeMismatchError("coupling/certificate size does not match problem")
    if c.left != tp.supply or c.right != tp.demand:
        return False
    for i in range(n):
        for j in range(n):
            if cert.u[i] + cert.v[j] > tp.cost[i][j]:
                return False
    primal = tp.objective(c)
    dual = sum((ui * si for ui, si in zip(cert.u, tp.supply.p)), ZERO) + sum(
        (vj * dj for vj, dj in zip(cert.v, tp.demand.p)), ZERO
    )
    return primal == cert.objective == dual
