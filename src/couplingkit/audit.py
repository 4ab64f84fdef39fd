"""Key-distribution audit: what the variational distance does and does not say.

Given a real key distribution P_K, the ideal reference P_U is always the
uniform distribution over the same alphabet (any non-uniform ideal would
leak; a key symbol with probability 0 or 1 is unusable outright).  The
audit computes, all exactly:

* v = v(P_K, P_U), the variational distance;
* the mismatch probability Pr{k != u} under the independent coupling,
  under the product-residual maximal coupling, and the certified
  minimum over all couplings;
* three verdict flags, each backed by those computed quantities:

  1. attaining Pr{k != u} = v requires correlation between real and
     ideal keys (the unique independent coupling does not attain it);
  2. v is a lower bound on Pr{k != u} over all couplings (certified by
     a dual certificate: minimum mismatch equals v);
  3. for independent keys with some symbol probability strictly inside
     (0, 1) on both sides, v < Pr{k != u} strictly.

Every step does O(N) exact work on the couplings' structure, without an
N x N matrix, and on plain ints over D, the lcm of P_K's common
denominator and N: P_K's ints are those its validation kept, multiplied
by D over its own denominator, P_U is D / N at every symbol, and a
:class:`~fractions.Fraction` is built only for the scalar fields of the
report.  v is sum |P_K(a) D - P_U(a) D| over
2D.  The independent coupling P_K x P_U has rank one: its entries are
non-negative and its marginals are P_K and P_U because both factors are
validated distributions of total 1, and its mismatch is
1 - sum P_K(a) P_U(a), which is 1 - sum P_K(a) D / (N D).  The maximal
coupling (a diagonal plus a rank-one residual product) is checked
entry-for-entry equivalently to dense validation by
:func:`~couplingkit.coupling.check_maximal`.  The minimum over all
couplings is certified by the closed-form dual on the event
{P_K >= P_U} (:func:`~couplingkit.transport.upper_set_dual`), checked
exactly by :func:`~couplingkit.transport.certify_mismatch_ints`.  The
public :func:`~couplingkit.coupling.maximal_diagonal` and
:func:`~couplingkit.transport.mismatch_certificate` run the same integer
code, and ``couplingkit oracle`` checks its certificate through the same
kernel.  The transportation simplex stays the independent oracle behind
``couplingkit oracle`` and the tests, which compare the two routes.

An optional epsilon with v <= epsilon is accepted as a user-supplied
bound and only sanity-checked; the audit never equates epsilon with any
mismatch probability, and never claims more than the lower-bound
relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import neg, sub

from .coupling import check_maximal
from .distributions import ONE, ZERO, Alphabet, Pmf
from .errors import CorruptedCouplingError, DistributionError
from .rational import bounded_str, decimal_string
from .transport import certify_mismatch_ints, upper_set_dual


@dataclass(frozen=True)
class EpsilonAuditInput:
    """Real key distribution plus an optional claimed bound v <= epsilon."""

    pk: Pmf
    epsilon: Fraction | None = None

    def __post_init__(self):
        if self.epsilon is not None and not (ZERO <= self.epsilon <= ONE):
            raise DistributionError(f"epsilon must lie in [0, 1], got {bounded_str(self.epsilon)}")


@dataclass(frozen=True)
class EpsilonAuditReport:
    """Exact audit quantities and verdict flags.

    Invariant: v == maximal_mismatch == oracle_min_mismatch <=
    independent_mismatch.  ``strict_gap_holds`` is true when the
    interior-probability hypothesis is satisfied and the strict
    inequality v < independent_mismatch was observed.
    """

    v: Fraction
    independent_mismatch: Fraction
    maximal_mismatch: Fraction
    oracle_min_mismatch: Fraction
    interior_hypothesis: bool
    strict_gap_holds: bool
    fact_maximal_requires_correlation: bool
    fact_lower_bound_over_all_couplings: bool
    fact_independent_strict_gap: bool
    degenerate_key: bool
    epsilon: Fraction | None
    epsilon_consistent: bool | None
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "v": str(self.v),
            "independentMismatch": str(self.independent_mismatch),
            "maximalMismatch": str(self.maximal_mismatch),
            "oracleMinMismatch": str(self.oracle_min_mismatch),
            "interiorHypothesis": self.interior_hypothesis,
            "strictGapHolds": self.strict_gap_holds,
            "verdictFacts": {
                "maximalRequiresCorrelation": self.fact_maximal_requires_correlation,
                "lowerBoundOverAllCouplings": self.fact_lower_bound_over_all_couplings,
                "independentStrictGap": self.fact_independent_strict_gap,
            },
            "degenerateKey": self.degenerate_key,
            "epsilon": None if self.epsilon is None else str(self.epsilon),
            "epsilonConsistent": self.epsilon_consistent,
            "notes": list(self.notes),
        }

    def render_table(self, precision: int = 5) -> str:
        def show(x: Fraction) -> str:
            return f"{x} ({decimal_string(x, precision)})"

        lines = [
            f"v(P_K, P_U):             {show(self.v)}",
            f"mismatch, independent:   {show(self.independent_mismatch)}",
            f"mismatch, maximal:       {show(self.maximal_mismatch)}",
            f"mismatch, LP minimum:    {show(self.oracle_min_mismatch)}",
            f"interior hypothesis:     {self.interior_hypothesis}",
            f"strict gap holds:        {self.strict_gap_holds}",
            "verdict facts:",
            f"  1. equality v = Pr{{k!=u}} needs correlated keys:  {self.fact_maximal_requires_correlation}",
            f"  2. v is a certified lower bound over couplings:  {self.fact_lower_bound_over_all_couplings}",
            f"  3. independent keys give v < Pr{{k!=u}} strictly: {self.fact_independent_strict_gap}",
        ]
        if self.epsilon is not None:
            lines.append(
                f"epsilon:                 {show(self.epsilon)}; "
                f"consistent (v <= epsilon): {self.epsilon_consistent}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def epsilon_audit(audit_input: EpsilonAuditInput) -> EpsilonAuditReport:
    """Audit a real key distribution against the uniform ideal key."""
    pk = audit_input.pk
    n = len(pk.p)
    own_scale, own_ints = pk._scaled
    scale = lcm(own_scale, n)
    factor = scale // own_scale
    p, q = [x * factor for x in own_ints], [scale // n] * n

    v = Fraction(sum(map(abs, map(sub, p, q))), 2 * scale)
    # P_U is 1/N everywhere, so sum P_K(a) P_U(a) = sum(p) / (N D).
    independent_mismatch = Fraction(n * scale - sum(p), n * scale)
    m = check_maximal(p, q, scale, pk.alphabet.symbols)
    maximal_mismatch = Fraction(m, scale)

    inside, objective = upper_set_dual(p, q)
    oracle_min = Fraction(objective, scale)
    oracle_ok = certify_mismatch_ints(m, inside, list(map(neg, inside)), 1, oracle_min, p + q, scale)

    if not (oracle_ok and v == maximal_mismatch == oracle_min <= independent_mismatch):
        raise CorruptedCouplingError(
            "audit invariant failed: "
            f"v={bounded_str(v)}, maximal={bounded_str(maximal_mismatch)}, "
            f"oracle={bounded_str(oracle_min)}, "
            f"independent={bounded_str(independent_mismatch)}, certified={oracle_ok}"
        )

    interior = any(0 < x < scale and 0 < y < scale for x, y in zip(p, q))
    strict_gap = interior and v < independent_mismatch
    degenerate = 0 in p or scale in p

    notes = []
    if degenerate:
        notes.append(
            "some key symbol has probability 0 or 1; such a sequence cannot "
            "serve as a secret key, and the strict-gap flag is not asserted"
        )
    notes.append(
        "v is the minimum of Pr{k != u} over all couplings, attained only "
        "when real and ideal keys are correlated; it is not itself a "
        "failure probability"
    )

    epsilon = audit_input.epsilon
    epsilon_consistent = None if epsilon is None else v <= epsilon
    if epsilon_consistent is False:
        notes.append(
            f"claimed bound epsilon = {bounded_str(epsilon)} is below v = {bounded_str(v)}; "
            "the input is inconsistent with v <= epsilon"
        )

    return EpsilonAuditReport(
        v=v,
        independent_mismatch=independent_mismatch,
        maximal_mismatch=maximal_mismatch,
        oracle_min_mismatch=oracle_min,
        interior_hypothesis=interior,
        strict_gap_holds=strict_gap,
        fact_maximal_requires_correlation=(
            maximal_mismatch == v and independent_mismatch > v
        ),
        fact_lower_bound_over_all_couplings=(oracle_ok and oracle_min == v),
        fact_independent_strict_gap=strict_gap,
        degenerate_key=degenerate,
        epsilon=epsilon,
        epsilon_consistent=epsilon_consistent,
        notes=tuple(notes),
    )


def example4_report(n: int) -> EpsilonAuditReport:
    """Audit of an already-ideal key: P_K uniform over n >= 2 symbols.

    Yields v = 0 with independent mismatch 1 - 1/n: even a perfect key
    drawn independently of the ideal one almost always differs from it.
    """
    if n < 2:
        raise DistributionError(f"uniform-key audit needs n >= 2, got {n}")
    pk = Pmf.uniform(Alphabet.of_size(n))
    return epsilon_audit(EpsilonAuditInput(pk=pk))
