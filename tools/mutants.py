"""Mutation smoke test: each listed one-line mutant of ``src/`` must fail a test.

Every fast path in couplingkit is meant to have an independent check in
the tests.  This script shows the checks bite.  Each mutant names a
file under ``src/couplingkit``, a piece of one line as it stands there
(found exactly once), what that piece becomes, and the test files that
cover it.  For each mutant the script copies ``src/`` to a temporary
directory, rewrites the piece in the copy and runs pytest on the
covering files against the copy, stopping at the first failure.  The
pytest run starts in the temporary directory, so it leaves no cache or
example database behind.  Standard library only::

    python tools/mutants.py [NAME ...]

With names, only those mutants run.  Prints one line per mutant and
exits 1 if any survives.  A survivor is a gap in the tests: it gets a
new test, or a note in CHANGES.md, and stays on the list.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # under src/couplingkit
    old: str
    new: str
    tests: tuple[str, ...]  # under tests/


TRANSPORT_TESTS = ("test_transport.py", "test_cli.py")

MUTANTS = (
    Mutant(
        "tied-symbols-join-last-column", "transport.py",
        "(k, cols[0])", "(k, cols[-1])", TRANSPORT_TESTS,
    ),
    Mutant(
        "equal-marginals-star-on-last-row", "transport.py",
        "tied = [(0, j) for j in range(1, n)]", "tied = [(n - 1, j) for j in range(n - 1)]",
        TRANSPORT_TESTS,
    ),
    Mutant(
        "leaving-cell-largest-index", "transport.py",
        "theta, p, q = min(down)", "theta, p, q = max(c for c in down if c[0] == min(down)[0])",
        TRANSPORT_TESTS,
    ),
    Mutant(
        "least-cost-start-retires-column-first", "transport.py",
        "if left[a] == 0 and rows > 1:", "if left[a] == 0 and rows > 1 and (right[b] or cols == 1):",
        TRANSPORT_TESTS,
    ),
    Mutant(
        "least-cost-start-orders-by-column", "transport.py",
        "key=flat.__getitem__", "key=lambda k: (flat[k], k % n)", TRANSPORT_TESTS,
    ),
    Mutant(
        "over-supplied-counted-as-tied", "transport.py",
        "if supply[k] == demand[k]]", "if supply[k] >= demand[k]]", TRANSPORT_TESTS,
    ),
    Mutant(
        "certify-rejects-tight-dual", "transport.py",
        "if max(map(sub, v, cost)) > -ui:", "if max(map(sub, v, cost)) >= -ui:", ("test_transport.py",),
    ),
    Mutant(
        "product-skips-row-cofactor", "coupling.py",
        "if g != 1:", "if False:", ("test_coupling.py",),
    ),
    Mutant(
        "check-maximal-rejects-zero-residual", "coupling.py",
        "or y < 0:", "or y <= 0:", ("test_coupling.py", "test_exact_kernel.py"),
    ),
    Mutant(
        "check-maximal-skips-factor-loop", "coupling.py",
        "if min(overlap, default=0) < 0:", "if False:", ("test_exact_kernel.py",),
    ),
    Mutant(
        "check-maximal-skips-marginal-loop", "coupling.py",
        "if sx == m == sy:", "if True:", ("test_exact_kernel.py",),
    ),
    Mutant(
        "coupling-skips-marginal-check", "coupling.py",
        "_check_marginals(scale, row_sums, columns, left, right)", "pass", ("test_coupling.py",),
    ),
    Mutant(
        "mismatch-pricing-reads-own-column-v", "transport.py",
        "if ua + va > 0 or ua + top > 1:", "if ua + va > 0 or ua + va > 1:", ("test_transport.py",),
    ),
    Mutant(
        "sparse-validation-skips-a-column", "distributions.py",
        "for column, x in zip(columns, ints):", "for column, x in zip(columns[1:], ints[1:]):",
        ("test_coupling.py", "test_transport.py"),
    ),
    Mutant(
        "structural-certify-drops-diagonal", "transport.py",
        "if max(map(add, u, v)) > 0:", "if False:", ("test_transport.py",),
    ),
    Mutant(
        "denominator-cache-keyed-on-numerator", "rational.py",
        "denominators.get(tail)", "denominators.get(head)", ("test_rational.py", "test_jsonio.py"),
    ),
    Mutant(
        "dantzig-takes-first-negative-row", "transport.py",
        "if low < ua:", "if low < ua and not listed:", ("test_transport.py",),
    ),
    Mutant(
        "dantzig-prunes-rows-tying-the-best", "transport.py",
        "if reduced < best:", "if reduced < best or reduced == best < 0:", ("test_transport.py",),
    ),
    Mutant(
        "dantzig-ties-to-last-column", "transport.py",
        "reduced.index(low)", "len(reduced) - 1 - reduced[::-1].index(low)", ("test_transport.py",),
    ),
    Mutant(
        "candidates-never-refreshed", "transport.py",
        "candidates = _row_leasts(cost, u, v)", "candidates = candidates or _row_leasts(cost, u, v)",
        ("test_transport.py",),
    ),
    Mutant(
        "candidate-takes-first-negative", "transport.py",
        "if reduced < best:", "if reduced < best and found is None:", ("test_transport.py",),
    ),
    Mutant(
        "bland-fallback-off", "transport.py",
        "degenerate = not theta", "degenerate = False", ("test_transport.py",),
    ),
    Mutant(
        "parse-ratio-reads-underscores", "rational.py",
        'text.isascii() and "_" not in text:', "text.isascii():", ("test_rational.py", "test_jsonio.py"),
    ),
    Mutant(
        "zero-entry-feeds-scale", "distributions.py",
        "for x, d in pairs if x})", "for x, d in pairs})",
        ("test_distributions.py", "test_coupling.py"),
    ),
    Mutant(
        "dense-row-skips-column-sums", "distributions.py",
        "sums = list(map(add, sums, ints))", "pass", ("test_distributions.py", "test_coupling.py"),
    ),
    Mutant(
        "literal-total-over-distinct-literals", "distributions.py",
        "_check_total(sum(ints), scale, _distribution_error)",
        "_check_total(sum(ratios_over(scale, pairs)), scale, _distribution_error)", ("test_distributions.py",),
    ),
    Mutant(
        "file-pmf-scale-not-reduced", "distributions.py",
        "g = gcd(scale, *values)", "g = 1", ("test_distributions.py",),
    ),
    Mutant(
        "lazy-p-unreduced", "distributions.py",
        "_reduced(x // (g := gcd(x, d)), d // g)", "_reduced(x, d)", ("test_distributions.py",),
    ),
    Mutant(
        "sign-checked-on-first-entry-only", "distributions.py",
        "for column, (x, d) in zip(columns, pairs):", "for column, (x, d) in zip(columns[:1], pairs[:1]):",
        ("test_distributions.py",),
    ),
    Mutant(
        "one-pass-parse-drops-extra-arguments", "cli.py",
        "if not extras:", "if True:", ("test_cli.py",),
    ),
    Mutant(
        "joint-scale-uses-left-denominator", "distributions.py",
        "fp, fq = scale // dp, scale // dq", "fp, fq = scale // dp, scale // dp",
        ("test_distributions.py", "test_metrics.py"),
    ),
    Mutant(
        "plain-literal-unreduced", "rational.py",
        "g = gcd(*pair)", "g = 1", ("test_rational.py",),
    ),
    Mutant(
        "plain-literal-zero-denominator", "rational.py",
        "if denominator:", "if True:", ("test_rational.py", "test_jsonio.py"),
    ),
    Mutant(
        "maximal-support-from-left-residual", "coupling.py",
        "enumerate(ry) if y]", "enumerate(map(sub, left, overlap)) if y]",
        ("test_coupling.py", "test_sparse_couplings.py"),
    ),
    Mutant(
        "coordinate-match-wrong-axis", "multidim.py",
        "if column % n == r % n]", "if column // n == r % n]",
        ("test_multidim.py", "test_sparse_couplings.py"),
    ),
    Mutant(
        "unmarked-rows-read-as-coprime", "coupling.py",
        "coprime = False", "coprime = True", ("test_coupling.py", "test_cli.py"),
    ),
    Mutant(
        "zero-column-shortcut-reads-first-cell", "jsonio.py",
        "if column != zeros:", "if column[:1] != zeros[:1]:", ("test_jsonio.py",),
    ),
    Mutant(
        "zero-filter-truth-tests-notimplemented", "jsonio.py",
        '_written = partial(ne, "0")', '_written = "0".__ne__', ("test_jsonio.py",),
    ),
    Mutant(
        "read-row-reorders-distinct-cells", "jsonio.py",
        "distinct = dict.fromkeys(row)", "distinct = dict.fromkeys(row[::-1])", ("test_jsonio.py",),
    ),
    Mutant(
        "blocks-column-listed-from-zero", "jsonio.py",
        "_listed(column, literals, start)", "_listed(column, literals, 0)", ("test_jsonio.py",),
    ),
    Mutant(
        "blocks-full-row-listed-as-list", "jsonio.py",
        "full if len(columns) == n * n else columns", "columns", ("test_jsonio.py",),
    ),
    Mutant(
        "written-columns-marked-by-y2", "jsonio.py",
        "touched = {b // n for b in columns}", "touched = {b % n for b in columns}", ("test_jsonio.py",),
    ),
)


def mutate(source: str, mutant: Mutant) -> str:
    """``source`` with the mutant's piece rewritten; raises ValueError unless it is there once, on one line."""
    if "\n" in mutant.old or source.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} is not one piece of one line of {mutant.path}")
    return source.replace(mutant.old, mutant.new)


def first_failure(mutant: Mutant) -> str | None:
    """The first covering test that fails on a copy of ``src/`` carrying the mutant; None if none does."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "couplingkit" / mutant.path
        target.write_text(mutate(target.read_text(encoding="utf-8"), mutant), encoding="utf-8")
        command = [
            sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            f"--rootdir={ROOT}", *(str(ROOT / "tests" / name) for name in mutant.tests),
        ]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(command, cwd=tmp, env=env, capture_output=True, text=True)
    if result.returncode not in (0, 1):  # 1: a test failed; anything else: pytest could not run them
        raise RuntimeError(f"{mutant.name}: pytest exited {result.returncode}\n{result.stdout}{result.stderr}")
    if result.returncode == 0:
        return None
    # A node id is printed relative to the temporary directory; keep the part under tests/.
    failed = [line.split()[1] for line in result.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return failed[0].rpartition("tests/")[2] if failed else "a covering test"


def main(argv: list[str] | None = None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    survivors = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        failure = first_failure(mutant)
        survivors += failure is None
        print(f"{'SURVIVED' if failure is None else 'killed':8s}  {mutant.name}  by {failure}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
