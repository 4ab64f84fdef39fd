"""Seeded inputs, operations and exact output checks for the benchmark workloads.

Each workload turns a seed into a fixed, finite list of operations (one
"cycle").  An operation is one CLI command run in-process through
``couplingkit.cli.main(argv)``, or one ``solve_transport`` + ``certify``
through the library.  The package only ever receives generated input
files or ``Pmf``/``TransportProblem`` values.

Every check is computed here with plain ``fractions.Fraction`` arithmetic
and ``json``, independently of the code being timed.  The first time an
operation's output is seen it is checked in full; later repeats of the
same operation must reproduce its stdout and output file byte for byte,
which is both a determinism check and what keeps re-checking cheap.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import couplingkit.cli as ck_cli
import couplingkit.transport as ck_transport
from couplingkit.distributions import Alphabet, Pmf

PARAMS = {
    "audit": {
        # Five sizes across the N axis, each measured about seven times a run,
        # so the median and the 11th-slowest operation each fall among the
        # runs of one size instead of on the edge between two.
        "full": {"sizes": [128, 64, 192, 96, 160], "weights": [300, 340]},
        "smoke": {"sizes": [4], "weights": [300, 340]},
    },
    "transport": {
        "full": {"n": 16, "instances": 128, "cost_max": 99, "marginal_bits": 16},
        "smoke": {"n": 4, "instances": 2, "cost_max": 99, "marginal_bits": 16},
    },
    "roundtrip": {
        "full": {"one_dim_n": 32, "one_dim_bits": [64, 1000, 64, 1000],
                 "two_dim_n": [6, 7, 8], "two_dim_weight_bits": 12,
                 "kinds": ["maximal", "independent"]},
        "smoke": {"one_dim_n": 4, "one_dim_bits": [64, 1000],
                  "two_dim_n": [4], "two_dim_weight_bits": 12,
                  "kinds": ["maximal", "independent"]},
    },
}


@dataclass
class Op:
    """One timed operation and the check of its outcome (None means correct)."""

    label: str
    group: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = ck_cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _weights_to_pmf(weights: list[int]) -> list[Fraction]:
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _half_l1(p: list[Fraction], q: list[Fraction]) -> Fraction:
    return sum((abs(x - y) for x, y in zip(p, q)), Fraction(0)) / 2


def _symbols(n: int) -> list[str]:
    return [f"s{i}" for i in range(n)]


def _write_json(path: Path, obj: dict) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _cli_failure(outcome) -> "str | None":
    code, _, err = outcome
    if code != 0:
        return f"exit code {code}: {err.strip()[:300]}"
    return None


def _against_first(first: dict, label: str, stdout: str, digest: "str | None" = None):
    """(seen, failure): whether ``label`` has a verified first output, and how
    this output differs from it (None when it repeats it byte for byte)."""
    seen = first.get(label)
    if seen is None:
        return False, None
    if stdout != seen[0]:
        return True, "stdout differs from the first run of the same operation"
    if digest != seen[1]:
        return True, "output file differs from the first run of the same operation"
    return True, None


def matrix_failure(matrix, left: list[Fraction], right: list[Fraction]) -> "str | None":
    """Why ``matrix`` is not a coupling of ``left`` and ``right``, or None."""
    n = len(left)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        return f"coupling is not {n}x{n}"
    if any(x < 0 for row in matrix for x in row):
        return "coupling has a negative entry"
    for i, row in enumerate(matrix):
        if sum(row, Fraction(0)) != left[i]:
            return f"coupling row {i} does not sum to the left marginal"
    for j in range(n):
        if sum((row[j] for row in matrix), Fraction(0)) != right[j]:
            return f"coupling column {j} does not sum to the right marginal"
    return None


def _parse_matrix(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


# ---------------------------------------------------------------- audit


def build_audit(params: dict, rng: random.Random, workdir: Path) -> list[Op]:
    first = {}
    lo, hi = params["weights"]
    ops = []
    for n in params["sizes"]:
        pk = _weights_to_pmf([rng.randint(lo, hi) for _ in range(n)])
        path = _write_json(workdir / f"pk_{n}.json",
                           {"alphabet": _symbols(n), "p": [str(x) for x in pk]})
        ops.append(_audit_op(n, pk, path, first))
    return ops


def _audit_op(n: int, pk: list[Fraction], path: str, first: dict) -> Op:
    label = f"audit N={n}"
    v = _half_l1(pk, [Fraction(1, n)] * n)
    independent = 1 - Fraction(1, n)

    def check(outcome):
        failure = _cli_failure(outcome)
        if failure:
            return failure
        stdout = outcome[1]
        seen, failure = _against_first(first, label, stdout)
        if seen:
            return failure
        report = json.loads(stdout)
        if Fraction(report["v"]) != v:
            return f"v is {report['v']}, expected {v}"
        if not Fraction(report["maximalMismatch"]) == Fraction(report["oracleMinMismatch"]) == v:
            return "maximalMismatch, oracleMinMismatch and v differ"
        if Fraction(report["independentMismatch"]) != independent:
            return f"independentMismatch is {report['independentMismatch']}, expected {independent}"
        first[label] = (stdout, None)
        return None

    return Op(label, "audit", lambda: run_cli(["audit", path, "--format", "json"]), check)


# ---------------------------------------------------------------- transport


def build_transport(params: dict, rng: random.Random, workdir: Path) -> list[Op]:
    n = params["n"]
    alphabet = Alphabet(_symbols(n))
    top = 2 ** params["marginal_bits"] // n
    first = {}
    ops = []
    for k in range(params["instances"]):
        supply = Pmf(alphabet, _weights_to_pmf([rng.randint(1, top) for _ in range(n)]))
        demand = Pmf(alphabet, _weights_to_pmf([rng.randint(1, top) for _ in range(n)]))
        cost = [[Fraction(rng.randint(0, params["cost_max"])) for _ in range(n)] for _ in range(n)]
        ops.append(_transport_op(k, ck_transport.TransportProblem(supply, demand, cost), first))
    return ops


def _solve_and_certify(tp):
    coupling, certificate, _ = ck_transport.solve_transport(tp)
    return coupling, certificate, ck_transport.certify(coupling, certificate, tp)


def _transport_op(k: int, tp, first: dict) -> Op:
    label = f"transport #{k} N={len(tp.supply.p)}"
    supply, demand, cost = list(tp.supply.p), list(tp.demand.p), tp.cost

    def check(outcome):
        coupling, certificate, certified = outcome
        if certified is not True:
            return "certify did not return True"
        failure = matrix_failure(coupling.j, supply, demand)
        if failure:
            return failure
        n = len(supply)
        u, v = certificate.u, certificate.v
        if any(u[i] + v[j] > cost[i][j] for i in range(n) for j in range(n)):
            return "dual potentials are infeasible"
        primal = sum((cost[i][j] * coupling.j[i][j] for i in range(n) for j in range(n)), Fraction(0))
        dual = sum((a * b for a, b in zip(u, supply)), Fraction(0)) + sum(
            (a * b for a, b in zip(v, demand)), Fraction(0))
        if not primal == dual == certificate.objective:
            return f"primal {primal}, dual {dual} and objective {certificate.objective} differ"
        seen = first.get(label)
        if seen is not None and seen != certificate.objective:
            return "objective differs from the first run of the same instance"
        first[label] = certificate.objective
        return None

    return Op(label, "transport", lambda: _solve_and_certify(tp), check)


# ---------------------------------------------------------------- roundtrip


@dataclass
class Pair:
    """A generated (P, Q) pair, flattened to one dimension for the checks."""

    name: str
    two_dim: bool
    symbols: list[str]        # one-dim alphabet of the files
    flat_symbols: list[str]   # alphabet the couplings are over
    p: list[Fraction]
    q: list[Fraction]
    p_path: str
    q_path: str

    @property
    def v(self) -> Fraction:
        return _half_l1(self.p, self.q)

    def mismatch(self, kind: str) -> Fraction:
        if kind == "maximal":
            return self.v
        return 1 - sum((x * y for x, y in zip(self.p, self.q)), Fraction(0))


def _one_dim_pair(name: str, n: int, bits: int, rng: random.Random, workdir: Path) -> Pair:
    # 32 weights between 2^(bits-6) and 2^(bits-5) sum to about 2^bits, so
    # the entries have denominators of about ``bits`` bits after reduction.
    lo = 2 ** max(bits - 6, 1)
    symbols = _symbols(n)
    p = _weights_to_pmf([rng.randint(lo, 2 * lo) for _ in range(n)])
    q = _weights_to_pmf([rng.randint(lo, 2 * lo) for _ in range(n)])
    paths = [_write_json(workdir / f"{name}_{side}.json",
                         {"alphabet": symbols, "p": [str(x) for x in dist]})
             for side, dist in (("p", p), ("q", q))]
    return Pair(name, False, symbols, symbols, p, q, *paths)


def _two_dim_pair(name: str, n: int, bits: int, rng: random.Random, workdir: Path) -> Pair:
    """Diagonal P2 against a band Q2 (|i - j| <= 1)."""
    top = 2 ** bits
    p_w = [[rng.randint(1, top) if i == j else 0 for j in range(n)] for i in range(n)]
    q_w = [[rng.randint(1, top) if abs(i - j) <= 1 else 0 for j in range(n)] for i in range(n)]
    symbols = _symbols(n)
    flat_symbols = [f"({a},{b})" for a in symbols for b in symbols]
    flat = {}
    paths = []
    for side, weights in (("p", p_w), ("q", q_w)):
        dist = _weights_to_pmf([w for row in weights for w in row])
        flat[side] = dist
        matrix = [[str(x) for x in dist[i * n:(i + 1) * n]] for i in range(n)]
        paths.append(_write_json(workdir / f"{name}_{side}.json",
                                 {"alphabet": symbols, "matrix": matrix}))
    return Pair(name, True, symbols, flat_symbols, flat["p"], flat["q"], *paths)


def _coupling_file_matrix(obj: dict, pair: Pair) -> list[list[Fraction]]:
    """Flattened matrix of a written coupling file (matrix or blocks layout)."""
    if not pair.two_dim:
        return _parse_matrix(obj["matrix"])
    blocks = obj["blocks"]
    return [
        [Fraction(x) for c in pair.symbols for x in blocks[f"({a},{b})"][c]]
        for a in pair.symbols
        for b in pair.symbols
    ]


def _coord_mismatch(matrix, n: int) -> Fraction:
    """1 - P(x2 == y2) for a flattened two-dim coupling."""
    size = n * n
    match = sum((matrix[r][c] for r in range(size) for c in range(size) if r % n == c % n),
                Fraction(0))
    return 1 - match


def _summary_fields(stdout: str) -> dict[str, str]:
    """``key: value (decimal)`` lines of ``couple --out`` as {key: value}."""
    fields = {}
    for line in stdout.splitlines():
        key, _, rest = line.partition(": ")
        fields[key] = rest.split(" ", 1)[0]
    return fields


class _Job:
    """One (pair, coupling kind): couple --out, verify, oracle --out."""

    def __init__(self, pair: Pair, kind: str, workdir: Path, first: dict):
        self.pair = pair
        self.kind = kind
        self.first = first
        self.c_path = workdir / f"C_{pair.name}_{kind}.json"
        self.o_path = workdir / f"O_{pair.name}_{kind}.json"
        self.mismatch = pair.mismatch(kind)
        self.coord = None   # coordinate mismatch, known once the coupling file is verified
        if pair.v == 0 or (kind == "independent" and self.mismatch == pair.v):
            raise ValueError(f"degenerate pair {pair.name}: 'maximal' flag would be ambiguous")

    def ops(self) -> list[Op]:
        pair, kind = self.pair, self.kind
        tag = f"{pair.name} {kind}"
        return [
            Op(f"couple {tag}", "write",
               lambda: run_cli(["couple", pair.p_path, pair.q_path, "--kind", kind,
                                "--out", str(self.c_path)]),
               self.check_couple),
            Op(f"verify {tag}", "read",
               lambda: run_cli(["verify", str(self.c_path), pair.p_path, pair.q_path,
                                "--format", "json"]),
               self.check_verify),
            Op(f"oracle {tag}", "write",
               lambda: run_cli(["oracle", pair.p_path, pair.q_path, "--out", str(self.o_path),
                                "--format", "json"]),
               self.check_oracle),
        ]

    def check_couple(self, outcome):
        failure = _cli_failure(outcome)
        if failure:
            return failure
        label = f"couple {self.pair.name} {self.kind}"
        digest = _digest(self.c_path)
        seen, failure = _against_first(self.first, label, outcome[1], digest)
        if seen:
            return failure
        pair = self.pair
        obj = json.loads(self.c_path.read_text(encoding="utf-8"))
        if obj["alphabet"] != pair.symbols:
            return "coupling file alphabet differs from the inputs"
        matrix = _coupling_file_matrix(obj, pair)
        failure = matrix_failure(matrix, pair.p, pair.q)
        if failure:
            return failure
        mismatch = 1 - sum((matrix[i][i] for i in range(len(matrix))), Fraction(0))
        if mismatch != self.mismatch:
            return f"written coupling has mismatch {mismatch}, expected {self.mismatch}"
        coord = _coord_mismatch(matrix, len(pair.symbols)) if pair.two_dim else None
        fields = _summary_fields(outcome[1])
        expected = {
            "v": str(pair.v),
            "mismatch": str(mismatch),
            "holds (v <= mismatch)": "true",
            "maximal (v = mismatch)": "true" if self.kind == "maximal" else "false",
            "gap": str(mismatch - pair.v),
        }
        if pair.two_dim:
            expected["pair mismatch"] = str(mismatch)
            expected["coordinate mismatch"] = str(coord)
        if fields != expected:
            return f"couple summary {fields} differs from {expected}"
        self.coord = coord
        self.first[label] = (outcome[1], digest)
        return None

    def check_verify(self, outcome):
        failure = _cli_failure(outcome)
        if failure:
            return failure
        label = f"verify {self.pair.name} {self.kind}"
        seen, failure = _against_first(self.first, label, outcome[1])
        if seen:
            return failure
        if self.pair.two_dim and self.coord is None:
            return "verify ran on a coupling file that did not pass its check"
        pair = self.pair
        report = json.loads(outcome[1])
        expected = {
            "valid": True,
            "v": str(pair.v),
            "mismatch": str(self.mismatch),
            "holds": True,
            "maximal": self.kind == "maximal",
            "gap": str(self.mismatch - pair.v),
        }
        if pair.two_dim:
            expected["pairMismatch"] = str(self.mismatch)
            expected["coordMismatch"] = str(self.coord)
        if report != expected:
            return f"verify report {report} differs from {expected}"
        self.first[label] = (outcome[1], None)
        return None

    def check_oracle(self, outcome):
        failure = _cli_failure(outcome)
        if failure:
            return failure
        # The oracle result does not depend on the coupling kind, so both
        # jobs of a pair must print and write the same bytes.
        label = f"oracle {self.pair.name}"
        digest = _digest(self.o_path)
        seen, failure = _against_first(self.first, label, outcome[1], digest)
        if seen:
            return failure
        pair = self.pair
        report = json.loads(outcome[1])
        expected = {"objective": str(pair.v), "v": str(pair.v), "certified": True, "agreement": True}
        if report != expected:
            return f"oracle report {report} differs from {expected}"
        solution = json.loads(self.o_path.read_text(encoding="utf-8"))
        if solution["coupling"]["alphabet"] != pair.flat_symbols:
            return "oracle coupling alphabet differs from the inputs"
        matrix = _parse_matrix(solution["coupling"]["matrix"])
        failure = matrix_failure(matrix, pair.p, pair.q)
        if failure:
            return "oracle " + failure
        n = len(matrix)
        mismatch = 1 - sum((matrix[i][i] for i in range(n)), Fraction(0))
        cert = solution["certificate"]
        u = [Fraction(x) for x in cert["u"]]
        w = [Fraction(x) for x in cert["v"]]
        if len(u) != n or len(w) != n:
            return "certificate size differs from the alphabet"
        if any(u[i] + w[j] > (0 if i == j else 1) for i in range(n) for j in range(n)):
            return "certificate potentials are infeasible"
        dual = sum((a * b for a, b in zip(u, pair.p)), Fraction(0)) + sum(
            (a * b for a, b in zip(w, pair.q)), Fraction(0))
        if not mismatch == dual == Fraction(cert["objective"]) == pair.v:
            return f"oracle primal {mismatch}, dual {dual}, objective {cert['objective']}, v {pair.v} differ"
        self.first[label] = (outcome[1], digest)
        return None


def build_roundtrip(params: dict, rng: random.Random, workdir: Path) -> list[Op]:
    pairs = [
        _one_dim_pair(f"1d{k}-{bits}bit", params["one_dim_n"], bits, rng, workdir)
        for k, bits in enumerate(params["one_dim_bits"])
    ] + [
        _two_dim_pair(f"2d-N{n}", n, params["two_dim_weight_bits"], rng, workdir)
        for n in params["two_dim_n"]
    ]
    first = {}
    return [op for kind in params["kinds"] for pair in pairs
            for op in _Job(pair, kind, workdir, first).ops()]


GENERATORS = {"audit": build_audit, "transport": build_transport, "roundtrip": build_roundtrip}


def build(workload: str, seed: int, smoke: bool, workdir: Path) -> list[Op]:
    """The seeded operation cycle of ``workload``; input files go to ``workdir``."""
    params = PARAMS[workload]["smoke" if smoke else "full"]
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](params, rng, workdir)
