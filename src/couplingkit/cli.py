"""Command-line front end.

Subcommands: vdist, couple, verify, oracle, audit, tables.  Every
command is a pure function of its input files and flags; repeated runs
produce byte-identical output.  A two-dim pair takes the one-dim path
over its pair labels ``(a,b)``; only the blocks layout of its coupling
files and the "pair mismatch" and "coordinate mismatch" lines of its
reports are its own.  A command's arguments are parsed in one pass, by
its own subparser; any other argv, and any with arguments the
subparser leaves over, goes through the full parser, so usage and
errors read as they always have.  Exit codes are stable API:

    0  success
    2  parse failure (file shape, such as a blocks file with a missing
       or an extra block or column, rational literal, invalid
       distribution, invalid flag value, such as ``--precision``
       outside 1..4300), an ``--out`` path that cannot be written (a
       directory, or a missing parent directory), or a result too large
       to write as text (an integer over Python's int-to-str digit
       limit, ``sys.set_int_max_str_digits``)
    3  alphabet mismatch between inputs (including one-dim vs two-dim)
    4  invalid coupling (first violated constraint is reported)
    5  claimed epsilon bound inconsistent with the computed distance
    6  regenerated golden table differs from the committed fixture

All comparisons are exact; the decimal renderings next to each rational
are display only (``--precision``, default 5 places, at most
:data:`~couplingkit.rational.MAX_EXPONENT` = 4300, the longest decimal
Python renders under its default int-to-str digit limit).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from pathlib import Path

from .audit import EpsilonAuditInput, epsilon_audit
from .coupling import Coupling, LemmaAudit, coupling_independent, coupling_maximal, lemma_audit
from .distributions import Pmf, Pmf2, require_same_alphabet
from .errors import (
    AlphabetMismatchError,
    CorruptedCouplingError,
    CouplingError,
    CouplingKitError,
    DistributionError,
    ParseError,
)
from .jsonio import (
    coupling_json,
    dump_json,
    load_distribution,
    load_pmf,
    parse_coupling4_blocks,
    parse_coupling_matrix,
    read_coupling,
)
from .metrics import vdist_halfsum
from .multidim import Coupling4, mismatch_components
from .rational import MAX_EXPONENT, bounded_str, decimal_string, parse_rational
from .tables import resolve_fixtures_dir, sync_fixtures
from .transport import TransportProblem, certify_mismatch_coupling, solve_transport

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ALPHABET = 3
EXIT_COUPLING = 4
EXIT_EPSILON = 5
EXIT_GOLDEN = 6


@dataclass(frozen=True)
class Config:
    """Resolved output options shared by the subcommands."""

    format: str = "table"
    precision: int = 5

    def __post_init__(self):
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        # Checked before any file is read: a longer decimal would build
        # 10**precision only to fail at the int-to-str limit.
        if self.precision > MAX_EXPONENT:
            raise ValueError(f"precision must be <= {MAX_EXPONENT}")

    def show(self, value) -> str:
        return f"{value} ({decimal_string(value, self.precision)})"


def _config(args: argparse.Namespace) -> Config:
    return Config(format=args.format, precision=args.precision)


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _load_pair(p_path: str, q_path: str):
    p = load_distribution(p_path)
    q = load_distribution(q_path)
    if type(p) is not type(q):
        raise AlphabetMismatchError(
            f"{p_path} and {q_path} mix one-dim and two-dim distributions"
        )
    return p, q


def _one_dim(p: Pmf | Pmf2, q: Pmf | Pmf2) -> tuple[Pmf, Pmf]:
    """The pair as one-dim distributions: a two-dim pair over its pair labels."""
    if isinstance(p, Pmf2):
        require_same_alphabet(p, q)
        return p.flatten(), q.flatten()
    return p, q


def cmd_vdist(args: argparse.Namespace) -> int:
    cfg = _config(args)
    v = vdist_halfsum(*_one_dim(*_load_pair(args.p_file, args.q_file)))
    if cfg.format == "json":
        _emit(dump_json({"v": str(v), "decimal": decimal_string(v, cfg.precision)}).rstrip("\n"))
    else:
        _emit(cfg.show(v))
    return EXIT_OK


def _coupling_of(flat: Coupling, p: Pmf | Pmf2, q: Pmf | Pmf2) -> Coupling | Coupling4:
    """``flat``, a coupling of ``_one_dim(p, q)``, as a coupling of ``p`` and ``q``."""
    return Coupling4(flat, p, q) if isinstance(p, Pmf2) else flat


def _report(cfg: Config, c: Coupling | Coupling4) -> tuple[LemmaAudit, list[str], dict]:
    """The audit of ``c``, its table lines, and the JSON fields it adds to the audit's own.

    Only a two-dim coupling adds lines and fields: its pair and
    coordinate mismatch, after the audit's.
    """
    audit = lemma_audit(c.flat if isinstance(c, Coupling4) else c)
    lines = [
        f"v: {cfg.show(audit.v)}",
        f"mismatch: {cfg.show(audit.mismatch)}",
        f"holds (v <= mismatch): {str(audit.holds).lower()}",
        f"maximal (v = mismatch): {str(audit.maximal).lower()}",
        f"gap: {cfg.show(audit.gap)}",
    ]
    fields = {}
    if isinstance(c, Coupling4):
        parts = mismatch_components(c)
        lines += [
            f"pair mismatch: {cfg.show(parts.pair_mismatch)}",
            f"coordinate mismatch: {cfg.show(parts.coord_mismatch)}",
        ]
        fields = {"pairMismatch": str(parts.pair_mismatch), "coordMismatch": str(parts.coord_mismatch)}
    return audit, lines, fields


def cmd_couple(args: argparse.Namespace) -> int:
    cfg = _config(args)
    p, q = _load_pair(args.p_file, args.q_file)
    build = coupling_maximal if args.kind == "maximal" else coupling_independent
    c = _coupling_of(build(*_one_dim(p, q)), p, q)
    # The whole file is rendered before --out is opened, so a failure leaves no partial file.
    payload = coupling_json(c)
    audit, lines, fields = _report(cfg, c)
    if cfg.format == "json":
        lines = [dump_json({**audit.to_json_dict(), **fields}).rstrip("\n")]
    summary = "".join(line + "\n" for line in lines)
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
        sys.stdout.write(summary)
    else:
        sys.stdout.write(payload)
        sys.stderr.write(summary)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config(args)
    kind, obj = read_coupling(args.coupling_file)
    p, q = _load_pair(args.p_file, args.q_file)
    two_dim = kind == "blocks"
    if isinstance(p, Pmf2) is not two_dim:
        raise AlphabetMismatchError(
            f"a {kind} coupling file needs {'two' if two_dim else 'one'}-dim marginal files"
        )
    parse = parse_coupling4_blocks if two_dim else parse_coupling_matrix
    alphabet, rows = parse(obj, where=args.coupling_file)
    if alphabet != p.alphabet:
        raise AlphabetMismatchError(
            "coupling file alphabet differs from the marginals' alphabet"
        )
    c = _coupling_of(Coupling.over(rows, *_one_dim(p, q)), p, q)
    audit, lines, fields = _report(cfg, c)
    if cfg.format == "json":
        _emit(dump_json({"valid": True, **audit.to_json_dict(), **fields}).rstrip("\n"))
    else:
        for line in ["valid: true", *lines]:
            _emit(line)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _config(args)
    p, q = _one_dim(*_load_pair(args.p_file, args.q_file))
    coupling, certificate, _ = solve_transport(TransportProblem.mismatch(p, q))
    certified = certify_mismatch_coupling(coupling, certificate)
    v = vdist_halfsum(p, q)
    agreement = certified and certificate.objective == v
    if not agreement:
        raise CorruptedCouplingError(
            f"oracle disagreement: objective {bounded_str(certificate.objective)}, "
            f"v {bounded_str(v)}, certified {certified}"
        )
    if args.out:
        Path(args.out).write_text(coupling_json(coupling, certificate.to_json_dict()), encoding="utf-8")
    if cfg.format == "json":
        fields = {"objective": str(certificate.objective), "v": str(v), "certified": certified, "agreement": agreement}
        # without --out the solution rides along, written from the coupling's rows
        text = dump_json(fields) if args.out else coupling_json(coupling, certificate.to_json_dict(), fields)
        _emit(text.rstrip("\n"))
    else:
        _emit(f"objective: {cfg.show(certificate.objective)}")
        _emit(f"v: {cfg.show(v)}")
        _emit(f"certified: {str(certified).lower()}")
        _emit(f"agreement: {str(agreement).lower()}")
        if not args.out:
            _emit("potentials u: " + " ".join(str(x) for x in certificate.u))
            _emit("potentials v: " + " ".join(str(x) for x in certificate.v))
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    cfg = _config(args)
    pk = load_pmf(args.pk_file)
    epsilon = parse_rational(args.epsilon) if args.epsilon is not None else None
    report = epsilon_audit(EpsilonAuditInput(pk=pk, epsilon=epsilon))
    if cfg.format == "json":
        _emit(dump_json(report.to_json_dict()).rstrip("\n"))
    else:
        _emit(report.render_table(cfg.precision))
    if report.epsilon_consistent is False:
        sys.stderr.write(
            f"warning: epsilon = {report.epsilon} is below v = {report.v}\n"
        )
        return EXIT_EPSILON
    return EXIT_OK


def cmd_tables(args: argparse.Namespace) -> int:
    directory = resolve_fixtures_dir(args.fixtures)
    results = sync_fixtures(directory)
    failed = False
    for result in results:
        _emit(f"{result.status:8s} {result.name}")
        if result.status == "mismatch":
            failed = True
            for line in result.diff:
                _emit(f"    {line}")
    return EXIT_GOLDEN if failed else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; parsing leaves no state on it.

    ``parser.subcommands`` maps each command name to its subparser.
    """
    parser = argparse.ArgumentParser(
        prog="couplingkit",
        description="Exact couplings, variational distance, and certified minimum mismatch.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="table")
    common.add_argument("--precision", type=int, default=5, metavar="K")

    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = {}

    def command(name, func, summary):
        s = parser.subcommands[name] = sub.add_parser(name, parents=[common], help=summary)
        s.set_defaults(func=func)
        return s

    s = command("vdist", cmd_vdist, "variational distance of two distribution files")
    s.add_argument("p_file")
    s.add_argument("q_file")

    s = command("couple", cmd_couple, "construct a coupling of two distributions")
    s.add_argument("p_file")
    s.add_argument("q_file")
    s.add_argument("--kind", choices=("independent", "maximal"), required=True)
    s.add_argument("--out", metavar="PATH")

    s = command("verify", cmd_verify, "validate a coupling file against marginals")
    s.add_argument("coupling_file")
    s.add_argument("p_file")
    s.add_argument("q_file")

    s = command("oracle", cmd_oracle, "certified minimum mismatch over all couplings")
    s.add_argument("p_file")
    s.add_argument("q_file")
    s.add_argument("--out", metavar="PATH")

    s = command("audit", cmd_audit, "key-distribution audit against the uniform ideal")
    s.add_argument("pk_file")
    s.add_argument("--epsilon", metavar="R")

    s = command("tables", cmd_tables, "regenerate golden tables and check them")
    s.add_argument("--fixtures", metavar="DIR")
    return parser


def _parse(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, in one pass when ``argv[0]`` names a command.

    The full parser hands everything after the command to its subparser,
    so that subparser alone parses ``argv[1:]`` the same way.  Any other
    argv, or one whose subparser leaves arguments over, goes through the
    full parser, which prints the usage and error it always has.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in parser.subcommands:
        args, extras = parser.subcommands[argv[0]].parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return args.func(args)
    except CouplingError as exc:
        sys.stderr.write(f"error: invalid coupling ({exc.constraint}): {exc}\n")
        return EXIT_COUPLING
    except AlphabetMismatchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ALPHABET
    except (ParseError, DistributionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except CouplingKitError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except ValueError as exc:
        # Bare ValueErrors come from writing a Fraction past the int-to-str
        # digit limit, from input that is not UTF-8, and from flags such as
        # --precision 0.  Caught once here, so the serializer pays no
        # per-value check.
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
