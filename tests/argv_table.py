"""Argv shapes for the CLI, each held to what the full parser makes of it.

``cli.main`` parses ``argv[1:]`` with the subparser of the command that
``argv[0]`` names, and sends every other argv, and any that the
subparser leaves arguments over from, through the full parser.  This
table runs each shape through ``main`` as it stands and through ``main``
with the full parser in its place, and compares the exit code, stdout,
stderr and the parsed namespace.  It needs only the standard library, so
it also runs where pytest is not installed::

    PYTHONPATH=src python -m tests.argv_table
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

from couplingkit import cli

RAMP = {"alphabet": ["1", "2", "3", "4"], "p": ["1/10", "1/5", "3/10", "2/5"]}
UNIFORM4 = {"alphabet": ["1", "2", "3", "4"], "p": ["1/4", "1/4", "1/4", "1/4"]}


def write_inputs(directory: str | Path) -> tuple[str, str]:
    """A ramp and a uniform distribution file in ``directory``."""
    paths = []
    for name, obj in (("P.json", RAMP), ("U.json", UNIFORM4)):
        path = Path(directory) / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        paths.append(str(path))
    return paths[0], paths[1]


def shapes(p: str, q: str) -> list[tuple[str, list[str]]]:
    """(how ``main`` receives it, argv): ``"argv"`` as its argument, ``"sys.argv"`` through ``main(None)``."""
    table = [
        [],
        ["-h"],
        ["--help"],
        ["nosuch", p],
        ["audit", "-h"],
        ["couple", "--help"],
        ["audit"],
        ["verify"],
        ["vdist", p],
        ["couple", p, q],
        ["couple", p, q, "--kind", "weird"],
        ["audit", p, "extra"],
        ["audit", p, "--bogus"],
        ["audit", p, p],
        ["audit", p, "--format", "xml"],
        ["audit", p, "--precision", "x"],
        ["oracle", p, q, "--out"],
        ["tables", "--fixtures"],
        ["audit", "--", p],
        ["audit", p, "--", "extra"],
        ["--format", "json", "audit", p],
        ["--precision", "3", "vdist", p, q],
        ["vdist", p, q],
        ["vdist", "--format", "json", "--precision", "3", p, q],
        ["audit", p, "--epsilon", "1/10"],
        ["audit", p, "--eps=1/3", "--format=json", "--precision=2"],
        ["oracle", "--precision", "2", p, q],
    ]
    return [("argv", argv) for argv in table] + [
        ("sys.argv", ["audit", p, "extra"]),
        ("sys.argv", ["audit"]),
        ("sys.argv", ["audit", p]),
    ]


def _full_parse(argv):
    return cli.build_parser().parse_args(argv)


def outcome(how: str, argv: list[str], full: bool = False):
    """(exit code, stdout, stderr, parsed namespace or None) of ``main`` on ``argv``.

    With ``full``, ``main`` parses with the full parser alone.
    """
    out, err = io.StringIO(), io.StringIO()
    parse = _full_parse if full else cli._parse
    parsed = []

    def recording(given):
        args = parse(given)
        parsed.append(vars(args))
        return args

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(cli, "_parse", recording))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        if how == "sys.argv":
            stack.enter_context(mock.patch.object(sys, "argv", ["couplingkit", *argv]))
        try:
            code = cli.main(None if how == "sys.argv" else list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue(), parsed[0] if parsed else None


def differences(directory: str | Path) -> list[tuple[str, list[str], tuple, tuple]]:
    """Every shape whose outcome differs from the full parser's, with both outcomes."""
    p, q = write_inputs(directory)
    found = []
    for how, argv in shapes(p, q):
        got, want = outcome(how, argv), outcome(how, argv, full=True)
        if got != want:
            found.append((how, argv, got, want))
    return found


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        p, q = write_inputs(tmp)
        count = len(shapes(p, q))
        found = differences(tmp)
    for how, argv, got, want in found:
        print(f"DIFFERS  {how} {argv}\n  got  {got!r}\n  want {want!r}")
    print(f"Python {sys.version.split()[0]}: {count - len(found)} of {count} argv shapes match the full parser")
    sys.exit(1 if found else 0)
