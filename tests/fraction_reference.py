"""Fraction-only reference versions of the package's exact validators.

The package checks masses, coupling marginals, dual certificates and the
key audit on ints over a common denominator, builds the independent and
maximal couplings with each cell already reduced, reads distribution
and coupling files straight into ints, and enumerates the polytope's
vertices by a spanning-tree walk on ints.  These are the direct Fraction
forms of the same checks, of those constructions, of the vertex
enumeration (every (2N - 1)-subset of cells, Fraction leaf stripping),
of distribution parsing (:func:`parse_distribution`) and of
``couplingkit verify``
(:func:`cmd_verify`: one Fraction per literal, Fraction validation and
Fraction sums), with the same constraint order and the same messages;
the property tests require both to agree on every verdict, every
returned value and every printed line.  :func:`parse_rational` reads
every literal by ``Fraction(text)``, which the package does only for
literals that are not plain ``"digits"`` or ``"digits/digits"``.
"""

from __future__ import annotations

import re
import sys
from collections import deque
from fractions import Fraction
from itertools import combinations
from math import lcm

from couplingkit import cli
from couplingkit.audit import EpsilonAuditReport
from couplingkit.coupling import Coupling, LemmaAudit
from couplingkit.distributions import ONE, ZERO, Pmf, Pmf2, require_same_alphabet
from couplingkit.errors import (
    AlphabetMismatchError,
    CorruptedCouplingError,
    CouplingError,
    DistributionError,
    ParseError,
    ShapeMismatchError,
)
from couplingkit.jsonio import _parse_alphabet, dump_json, read_coupling
from couplingkit.rational import _EXPONENT, MAX_EXPONENT, _quote, bounded_str
from couplingkit.transport import DualCertificate


def parse_rational(text: str) -> Fraction:
    """``couplingkit.rational.parse_rational`` with every literal read by ``Fraction(text)``."""
    if not isinstance(text, str):
        raise ParseError(f"rational literal must be a string, got {type(text).__name__}")
    exponent = ("e" in text or "E" in text) and _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise ParseError(
                f"rational literal {_quote(text)} has an exponent over {MAX_EXPONENT} in magnitude"
            )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in rational literal {_quote(text)}") from None
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if limit and any(
            len(run) - run.count("_") > limit for run in re.findall(r"[0-9_]+", text)
        ):
            raise ParseError(
                f"rational literal {_quote(text)} is too long (over {limit} digits)"
            ) from None
        raise ParseError(f"malformed rational literal {_quote(text)}") from None


def common_denominator(values) -> int:
    """The lcm of the denominators of ``values``; 1 when there are none."""
    return lcm(*(x.denominator for x in values))


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
    primal = objective(tp, c)
    return primal == cert.objective == dual_value(cert.u, cert.v, tp.supply, tp.demand)


def objective(tp, c) -> Fraction:
    """The cost of coupling ``c`` under problem ``tp``: sum of cost times mass."""
    return sum(
        (cv * jv for crow, jrow in zip(tp.cost, c.j) for cv, jv in zip(crow, jrow)),
        ZERO,
    )


def dual_value(u, v, supply, demand) -> Fraction:
    return sum((ui * si for ui, si in zip(u, supply.p)), ZERO) + sum(
        (vj * dj for vj, dj in zip(v, demand.p)), ZERO
    )


def vertex_enumerate(tp) -> list[Coupling]:
    """Every (2N - 1)-subset of cells whose Fraction flows make a vertex, deduplicated in order."""
    n = len(tp.supply.alphabet)
    all_cells = [(i, j) for i in range(n) for j in range(n)]
    vertices: dict[tuple, Coupling] = {}
    for cells in combinations(all_cells, 2 * n - 1):
        flow = _spanning_tree_flows(cells, tp.supply.p, tp.demand.p, n)
        if flow is None:
            continue
        matrix = tuple(tuple(row) for row in flow)
        if matrix not in vertices:
            vertices[matrix] = Coupling(matrix, tp.supply, tp.demand)
    return list(vertices.values())


def _spanning_tree_flows(cells, supply, demand, n):
    """Unique flows on a candidate tree basis, or None if infeasible/not a tree.

    Resolves leaf nodes first: a node incident to exactly one unresolved
    cell forces that cell's flow to its remaining mass.
    """
    s = list(supply)
    d = list(demand)
    flow = [[ZERO] * n for _ in range(n)]
    alive = set(cells)
    row_cells = [set() for _ in range(n)]
    col_cells = [set() for _ in range(n)]
    for cell in cells:
        row_cells[cell[0]].add(cell)
        col_cells[cell[1]].add(cell)
    queue = deque()
    for i in range(n):
        if len(row_cells[i]) == 1:
            queue.append(("row", i))
    for j in range(n):
        if len(col_cells[j]) == 1:
            queue.append(("col", j))
    while queue:
        kind, idx = queue.popleft()
        incident = row_cells[idx] if kind == "row" else col_cells[idx]
        if len(incident) != 1:
            continue  # stale queue entry
        (cell,) = incident
        a, b = cell
        amount = s[a] if kind == "row" else d[b]
        if amount < 0:
            return None
        flow[a][b] = amount
        s[a] -= amount
        d[b] -= amount
        alive.discard(cell)
        row_cells[a].discard(cell)
        col_cells[b].discard(cell)
        if len(row_cells[a]) == 1:
            queue.append(("row", a))
        if len(col_cells[b]) == 1:
            queue.append(("col", b))
    if alive:
        return None  # a cycle survived stripping: not a tree
    if any(x != 0 for x in s) or any(x != 0 for x in d):
        return None  # disconnected forest left unserved mass
    if any(v < 0 for row in flow for v in row):
        return None
    return flow


def coupling_independent_rows(p, q) -> tuple[tuple[Fraction, ...], ...]:
    """The product coupling's matrix, P(a) * Q(b) cell by cell in Fractions.  Not validated."""
    require_same_alphabet(p, q)
    return tuple(tuple(x * y for y in q.p) for x in p.p)


def coupling_maximal_rows(p, q) -> tuple[tuple[Fraction, ...], ...]:
    """The product-residual maximal coupling's matrix, cell by cell in Fractions.

    Diagonal min{P, Q}; off the diagonal zero when the residual mass is
    zero, else rx(a) * ry(b) / mismatch.  Not validated.
    """
    require_same_alphabet(p, q)
    n = len(p.alphabet)
    overlap = [min(x, y) for x, y in zip(p.p, q.p)]
    rx = [x - d for x, d in zip(p.p, overlap)]
    ry = [y - d for y, d in zip(q.p, overlap)]
    mismatch = ONE - sum(overlap, ZERO)
    rows = []
    for i in range(n):
        row = []
        for k in range(n):
            if i == k:
                row.append(min(p.p[i], q.p[i]))
            elif mismatch == 0:
                row.append(ZERO)
            else:
                row.append(rx[i] * ry[k] / mismatch)
        rows.append(tuple(row))
    return tuple(rows)


def maximal_diagonal(p, q) -> tuple[Fraction, ...]:
    """Diagonal of the product-residual maximal coupling, after its O(N) checks."""
    require_same_alphabet(p, q)
    overlap = tuple(min(x, y) for x, y in zip(p.p, q.p))
    rxs = tuple(x - d for x, d in zip(p.p, overlap))
    rys = tuple(y - d for y, d in zip(q.p, overlap))
    m = ONE - sum(overlap, ZERO)
    if m < 0:
        raise CorruptedCouplingError(f"maximal coupling: residual mass {m} is negative")
    for a, d, rx, ry in zip(p.alphabet, overlap, rxs, rys):
        if d < 0 or rx < 0 or ry < 0:
            raise CorruptedCouplingError(f"maximal coupling: negative factor at {a!r}")
        if rx and ry:
            raise CorruptedCouplingError(f"maximal coupling: rx * ry != 0 at {a!r}")
    if m == 0:
        if any(not (d == x == y) for d, x, y in zip(overlap, p.p, q.p)):
            raise CorruptedCouplingError("maximal coupling: zero residual mass but P != Q")
        return overlap
    sx = sum(rxs, ZERO)
    sy = sum(rys, ZERO)
    if sx * sy != m * m:
        raise CorruptedCouplingError("maximal coupling: total mass is not 1")
    row_scale = sy / m
    col_scale = sx / m
    for a, d, x, y, rx, ry in zip(p.alphabet, overlap, p.p, q.p, rxs, rys):
        if (d + rx * row_scale if rx else d) != x:
            raise CorruptedCouplingError(f"maximal coupling: row marginal at {a!r} is not P({a})")
        if (d + ry * col_scale if ry else d) != y:
            raise CorruptedCouplingError(f"maximal coupling: column marginal at {a!r} is not Q({a})")
    return overlap


def mismatch_certificate(p, q) -> DualCertificate:
    """u = 1 and v = -1 on B = {P >= Q}, with objective P(B) - Q(B)."""
    require_same_alphabet(p, q)
    inside = [x >= y for x, y in zip(p.p, q.p)]
    u = tuple(ONE if b else ZERO for b in inside)
    v = tuple(-x for x in u)
    gap = sum((x - y for b, x, y in zip(inside, p.p, q.p) if b), ZERO)
    return DualCertificate(u=u, v=v, objective=gap)


def certify_mismatch(diagonal, cert, supply, demand) -> bool:
    """Diagonal and off-diagonal dual feasibility, then primal == objective == dual."""
    require_same_alphabet(supply, demand)
    n = len(supply.alphabet)
    if len(diagonal) != n or len(cert.u) != n or len(cert.v) != n:
        raise ShapeMismatchError("diagonal/certificate size does not match problem")
    if any(ui + vi > 0 for ui, vi in zip(cert.u, cert.v)):
        return False
    if max(cert.u) + max(cert.v) > 1:
        return False
    primal = ONE - sum(diagonal, ZERO)
    return primal == cert.objective == dual_value(cert.u, cert.v, supply, demand)


def epsilon_audit(audit_input) -> EpsilonAuditReport:
    """The key audit with every quantity and check in Fractions."""
    pk = audit_input.pk
    pu = Pmf.uniform(pk.alphabet)

    v = sum((abs(x - y) for x, y in zip(pk.p, pu.p)), ZERO) / 2
    independent_mismatch = ONE - sum((x * y for x, y in zip(pk.p, pu.p)), ZERO)
    diagonal = maximal_diagonal(pk, pu)
    maximal_mismatch = ONE - sum(diagonal, ZERO)

    certificate = mismatch_certificate(pk, pu)
    oracle_ok = certify_mismatch(diagonal, certificate, pk, pu)
    oracle_min = certificate.objective

    if not (oracle_ok and v == maximal_mismatch == oracle_min <= independent_mismatch):
        raise CorruptedCouplingError(
            "audit invariant failed: "
            f"v={v}, maximal={maximal_mismatch}, oracle={oracle_min}, "
            f"independent={independent_mismatch}, certified={oracle_ok}"
        )

    interior = any(0 < x < 1 and 0 < y < 1 for x, y in zip(pk.p, pu.p))
    strict_gap = interior and v < independent_mismatch
    degenerate = any(x == 0 or x == 1 for x in pk.p)

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
            f"claimed bound epsilon = {epsilon} is below v = {v}; "
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


def _parse_row(row, n, where, literals):
    if not isinstance(row, list) or len(row) != n:
        raise ParseError(f"{where}: expected a list of {n} rational strings")
    values = []
    for text in row:
        if isinstance(text, str):
            if text not in literals:
                literals[text] = parse_rational(text)
            values.append(literals[text])
        else:
            values.append(parse_rational(text))
    return values


def parse_distribution(obj, where="distribution"):
    """``jsonio.parse_distribution`` on Fractions: each distinct literal read by ``Fraction(text)``, then :func:`check_mass`.

    Returns the flat entries, row-major for a matrix, and D, the lcm of
    their denominators; the first failure is raised as the package raises it.
    """
    has_p, has_matrix = "p" in obj, "matrix" in obj
    if has_p and has_matrix:
        raise ParseError(f"{where}: both 'p' and 'matrix' present; ambiguous shape")
    if not has_p and not has_matrix:
        raise ParseError(f"{where}: neither 'p' nor 'matrix' present")
    alphabet = _parse_alphabet(obj, where)
    n = len(alphabet)
    literals = {}
    if has_p:
        entries, labels = _parse_row(obj["p"], n, f"{where} 'p'", literals), alphabet.symbols
    else:
        matrix = obj.get("matrix")
        if not isinstance(matrix, list) or len(matrix) != n:
            raise ParseError(f"{where}: 'matrix' must be a list of {n} rows")
        rows = [_parse_row(row, n, f"{where} row {i}", literals) for i, row in enumerate(matrix)]
        entries, labels = [x for row in rows for x in row], alphabet.product().symbols
    scale = check_mass(entries, lambda k: f"p({labels[k]})", lambda message, constraint: DistributionError(message))
    return entries, scale


def parse_coupling_rows(kind, obj, where):
    """Alphabet and flat Fraction rows of a coupling file, one Fraction per distinct literal."""
    alphabet = _parse_alphabet(obj, where)
    n = len(alphabet)
    literals = {}
    if kind == "matrix":
        if "matrix" not in obj:
            raise ParseError(f"{where}: coupling file must carry a 'matrix'")
        matrix = obj.get("matrix")
        if not isinstance(matrix, list) or len(matrix) != n:
            raise ParseError(f"{where}: 'matrix' must be a list of {n} rows")
        return alphabet, [_parse_row(row, n, f"{where} row {i}", literals) for i, row in enumerate(matrix)]
    blocks = obj.get("blocks")
    if not isinstance(blocks, dict):
        raise ParseError(f"{where}: coupling file must carry 'blocks'")
    rows = []
    for a in alphabet.symbols:
        for b in alphabet.symbols:
            label = alphabet.pair_label(a, b)
            block = blocks.get(label)
            if not isinstance(block, dict):
                raise ParseError(f"{where}: missing block {label!r}")
            row = []
            for c in alphabet.symbols:
                if c not in block:
                    raise ParseError(f"{where}: block {label!r} missing column {c!r}")
                row += _parse_row(block[c], n, f"{where} block {label!r} column {c!r}", literals)
            rows.append(row)
    return alphabet, rows


def cmd_verify(args) -> int:
    """``couplingkit verify`` with every entry a Fraction: parse, validate, then Fraction sums."""
    cfg = cli._config(args)
    kind, obj = read_coupling(args.coupling_file)
    p, q = cli._load_pair(args.p_file, args.q_file)
    if kind == "matrix" and not isinstance(p, Pmf):
        raise AlphabetMismatchError("a matrix coupling file needs one-dim marginal files")
    if kind == "blocks" and not isinstance(p, Pmf2):
        raise AlphabetMismatchError("a blocks coupling file needs two-dim marginal files")
    alphabet, rows = parse_coupling_rows(kind, obj, args.coupling_file)
    if alphabet != p.alphabet:
        raise AlphabetMismatchError("coupling file alphabet differs from the marginals' alphabet")
    left, right = (p, q) if kind == "matrix" else (p.flatten(), q.flatten())
    rows = validate_coupling(rows, left, right)
    v = sum((abs(x - y) for x, y in zip(left.p, right.p)), ZERO) / 2
    mismatch = ONE - sum((row[i] for i, row in enumerate(rows)), ZERO)
    if v > mismatch:
        raise CorruptedCouplingError(
            f"coupling inequality violated: v={bounded_str(v)} > mismatch={bounded_str(mismatch)}"
        )
    audit = LemmaAudit(v=v, mismatch=mismatch, holds=True, maximal=(v == mismatch), gap=mismatch - v)
    lines = [
        "valid: true",
        f"v: {cfg.show(v)}",
        f"mismatch: {cfg.show(mismatch)}",
        "holds (v <= mismatch): true",
        f"maximal (v = mismatch): {str(v == mismatch).lower()}",
        f"gap: {cfg.show(mismatch - v)}",
    ]
    payload = {"valid": True, **audit.to_json_dict()}
    if kind == "blocks":
        n = len(alphabet)
        coord = ONE - sum(
            (rows[x1 * n + x2][y1 * n + x2] for x1 in range(n) for x2 in range(n) for y1 in range(n)),
            ZERO,
        )
        lines += [f"pair mismatch: {cfg.show(mismatch)}", f"coordinate mismatch: {cfg.show(coord)}"]
        payload.update(pairMismatch=str(mismatch), coordMismatch=str(coord))
    if cfg.format == "json":
        cli._emit(dump_json(payload).rstrip("\n"))
    else:
        for line in lines:
            cli._emit(line)
    return cli.EXIT_OK
