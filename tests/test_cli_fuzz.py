"""CLI fuzz property: every input ends in a documented exit code, deterministically.

Random JSON shapes, rational strings (exponents included) and alphabets
(empty, duplicate and comma-bearing symbols included) go through
``vdist``, ``couple``, ``verify``, ``oracle`` and ``audit`` in-process.
Each run must return an exit code in {0, 2, 3, 4, 5, 6} without an
exception escaping ``cli.main``, and a repeat run must print the same
stdout.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from couplingkit.cli import main

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5, 6}

symbols = st.sampled_from(["a", "b", "1", "2", "1,1", "(1,2)", "", "x,y"])
alphabets = st.lists(symbols, min_size=0, max_size=3)

exponent_literals = st.builds(
    "{}e{}".format,
    st.sampled_from(["0", "1", "2.5", "-3"]),
    st.sampled_from(["-1", "0", "+2", "-4300", "4301", "-999999999", "1_0", "-00005"]),
)
rationals = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=12).map(str),
    st.sampled_from(["0", "1", "1/2", "1/3", "0.25", "0.5", "1/0", "abc", "", "1e", "--1"]),
    exponent_literals,
)
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.floats(0, 1), rationals)
junk = st.one_of(
    st.sampled_from(["{oops", "[]", "3", '"p"', ""]),
    st.dictionaries(
        st.sampled_from(["alphabet", "p", "matrix", "blocks"]),
        st.one_of(json_scalars, st.lists(json_scalars, max_size=3)),
        max_size=4,
    ),
)


@st.composite
def masses(draw, size):
    """``size`` exact probabilities summing to 1."""
    weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    if sum(weights) == 0:
        weights[0] = 1
    return [Fraction(w, sum(weights)) for w in weights]


def _texts(values):
    return [str(v) for v in values]


def _file(alphabet, dim, flat):
    """A distribution file of ``dim`` dimensions with row-major entries ``flat``."""
    n = len(alphabet)
    if dim == 1:
        return {"alphabet": alphabet, "p": _texts(flat)}
    return {"alphabet": alphabet, "matrix": [_texts(flat[i * n:(i + 1) * n]) for i in range(n)]}


def _independent_coupling(alphabet, dim, p, q):
    """The product coupling of flat marginals ``p`` and ``q``, in the file layout of ``dim``."""
    n = len(alphabet)
    if dim == 1:
        return {"alphabet": alphabet, "matrix": [_texts(x * y for y in q) for x in p]}
    blocks = {
        f"({a},{b})": {
            c: _texts(p[i * n + k] * y for y in q[j * n:(j + 1) * n]) for j, c in enumerate(alphabet)
        }
        for i, a in enumerate(alphabet)
        for k, b in enumerate(alphabet)
    }
    return {"alphabet": alphabet, "blocks": blocks}


def _first_row(body):
    if "p" in body:
        return body["p"]
    if "matrix" in body:
        return body["matrix"][0]
    return next(iter(next(iter(body["blocks"].values())).values()))


@st.composite
def invocations(draw):
    """(command, {file name: body}, options): most files valid, some mutated or junk."""
    command = draw(st.sampled_from(["vdist", "couple", "verify", "oracle", "audit"]))
    dim = 1 if command == "audit" else draw(st.sampled_from([1, 2]))
    alphabet = draw(st.one_of(st.just(["a", "b"]), alphabets))
    size = len(alphabet) ** dim
    flat = {name: draw(masses(size)) if size else [] for name in ("p", "q")}
    files = {name: _file(alphabet, dim, flat[name]) for name in ("p", "q")}
    if command == "audit":
        del files["q"]
    if command == "verify":
        files["c"] = _independent_coupling(alphabet, dim, flat["p"], flat["q"])
    for name, body in files.items():
        change = draw(st.sampled_from(["none", "none", "none", "entry", "alphabet", "junk"]))
        if change == "junk":
            files[name] = draw(junk)
        elif change == "alphabet":
            body["alphabet"] = draw(alphabets)
        elif change == "entry" and size:
            row = _first_row(body)
            row[draw(st.integers(0, len(row) - 1))] = draw(rationals)
    options = ["--format", draw(st.sampled_from(["table", "json"]))]
    options += ["--precision", draw(st.sampled_from(["1", "2", "5", "5", "5", "0"]))]
    if command == "couple":
        options += ["--kind", draw(st.sampled_from(["maximal", "independent"]))]
    if command in ("couple", "oracle") and draw(st.booleans()):
        # An ordinary file, a directory, and a path under a missing directory.
        options += ["--out", draw(st.sampled_from(["<tmp>/out.json", "<tmp>", "<tmp>/missing/out.json"]))]
    if command == "audit" and draw(st.booleans()):
        options.append("--epsilon=" + draw(rationals))
    return command, files, options


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(invocations())
def test_every_invocation_ends_in_a_documented_exit_code(invocation):
    command, files, options = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, body in files.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(body if isinstance(body, str) else json.dumps(body), encoding="utf-8")
            paths[name] = str(path)
        positional = [paths[k] for k in ("c", "p", "q") if k in paths]
        argv = [command, *positional, *(o.replace("<tmp>", tmp) for o in options)]
        first = _run(argv)
        again = _run(argv)
    code, stdout, stderr = first
    assert code in DOCUMENTED_EXIT_CODES, (argv, stderr)
    assert "Traceback" not in stderr
    if code in (2, 3, 4):
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
    assert again[:2] == (code, stdout)
