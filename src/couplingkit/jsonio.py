"""JSON file formats for distributions and couplings.

All probabilities travel as rational strings ("1/9", "0.03750", "2"),
parsed exactly, each distinct literal once per file.  A distribution's
literals become Fractions (:func:`~couplingkit.rational.parse_rational`,
where plain ``"p/q"`` and integers cost ``int`` calls and one gcd), and
the distribution is built from the cell texts and that table of
literals (:class:`~couplingkit.distributions.Pmf`), which signs and
scales each distinct literal once.
A coupling's become (numerator, denominator) pairs of ints
(:func:`~couplingkit.rational.parse_ratio`, where plain ``"p/q"`` and
integers cost ``int`` calls and no gcd, and each distinct denominator
string is read once per file), and the coupling parsers
return each row in the coupling's one entry form, (columns, pairs):
every cell but those written as the literal ``"0"`` is listed with its
pair, ready for :meth:`~couplingkit.coupling.Coupling.over`, and no
Fraction is built per cell.  A cell written ``"0"`` costs no parser
call: the readers pass over it in C, and a two-dim column written all
``"0"`` is taken by one list comparison.  Shapes:

* one-dim distribution:  {"alphabet": [...], "p": [...]}
* two-dim distribution:  {"alphabet": [...], "matrix": [[...], ...]}
* coupling (one-dim):    {"alphabet": [...], "matrix": [[...], ...]}
* coupling (two-dim):    {"alphabet": [...], "blocks": {"(a,b)": {y1: [over y2]}}}

The two-dim coupling layout mirrors printed tables: one block per
(x1, x2) row pair, outer columns keyed by y1, inner lists indexed by y2.
A file carrying both "p" and "matrix" is ambiguous and rejected rather
than guessed.  Emission is deterministic: fixed key order, two-space
indentation, one trailing newline, so identical inputs produce
byte-identical files on every platform.

Coupling files, in both layouts and inside ``oracle``'s solution
documents (``--out``'s {"coupling", "certificate"} file and the
``--format json`` payload), are written by one writer,
:func:`coupling_json`.  It reads the entries as lowest-terms pairs of
ints, renders the decimal digits of each distinct denominator once,
writes ``"0"`` for each cell its row does not list (the text of a
two-dim column that holds no listed cell once per file), and lays the text
out row by row exactly as :func:`dump_json` lays out
:func:`coupling_to_obj` or :func:`coupling4_to_obj`, which stay for
the golden tables and for library callers.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from itertools import compress, repeat
from operator import ne
from pathlib import Path
from typing import Callable, Container, Iterable, Iterator, Sequence

from .coupling import Coupling, Rows, _dense
from .distributions import ZERO, Alphabet, Pmf, Pmf2
from .errors import ParseError
from .multidim import Coupling4
from .rational import decimal_string, parse_ratio, parse_rational

Render = Callable[[Fraction], str]


def decimal_renderer(places: int = 5) -> Render:
    return lambda value: decimal_string(value, places)


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _load_obj(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top-level JSON value must be an object")
    return obj


def _parse_alphabet(obj: dict, where: str) -> Alphabet:
    symbols = obj.get("alphabet")
    if not isinstance(symbols, list) or not all(map(isinstance, symbols, repeat(str))):
        raise ParseError(f"{where}: 'alphabet' must be a list of strings")
    return Alphabet(symbols)


# Whether a cell is other than the literal "0"; operator.ne, unlike "0".__ne__,
# gives a bool for a non-string cell too.
_written = partial(ne, "0")


def _read_row(row, n: int, where: str, literals: dict, parse: Callable) -> list[str]:
    """``row`` after checking its length and parsing, in order, each literal not yet in ``literals``.

    A cell written as the literal ``"0"`` is passed over without a parser
    call; a reader that looks its literals up seeds ``literals`` with it.
    A literal that fails to parse is not stored, so the first bad literal
    is the one reported.

    The cells are walked as ``dict.fromkeys(row)``, each distinct cell
    once, in the order of its first occurrence: a near-uniform row of N
    cells holds far fewer distinct literals, and the walk pays a Python
    step per distinct one, not per cell.  The parsers reject every
    non-string, and a string equals no other type, so the first cell
    that fails is the one the plain cell loop would reach first.  A row
    with an unhashable cell (a list or a dict) is walked cell by cell.
    """
    if not isinstance(row, list) or len(row) != n:
        raise ParseError(f"{where}: expected a list of {n} rational strings")
    try:
        distinct = dict.fromkeys(row)
    except TypeError:
        distinct = row
    for text in filter(_written, distinct):
        # Lists and dicts cannot be keys; the parsers reject every non-string.
        if not isinstance(text, str):
            parse(text)
        elif text not in literals:
            literals[text] = parse(text)
    return row


def _parse_matrix(obj: dict, alphabet: Alphabet, where: str, literals: dict, parse: Callable) -> list[list[str]]:
    n = len(alphabet)
    matrix = obj.get("matrix")
    if not isinstance(matrix, list) or len(matrix) != n:
        raise ParseError(f"{where}: 'matrix' must be a list of {n} rows")
    return [_read_row(row, n, f"{where} row {i}", literals, parse) for i, row in enumerate(matrix)]


def _ratio_parser() -> Callable[[str], tuple[int, int]]:
    """:func:`~couplingkit.rational.parse_ratio` with one denominator cache, for one file."""
    denominators: dict[str, int] = {}
    return lambda text: parse_ratio(text, denominators)


def _listed(row: list[str], literals: dict[str, tuple[int, int]], start: int = 0) -> tuple[Sequence[int], list]:
    """The cells of ``row`` not written ``"0"``, at columns ``start + k``, with their parsed pairs.

    A row with no ``"0"`` lists a range.  A literal's pair is shared by
    its cells.
    """
    columns = range(start, start + len(row))
    if "0" in row:
        kept = list(map(_written, row))
        columns, row = list(compress(columns, kept)), compress(row, kept)
    return columns, list(map(literals.__getitem__, row))


def parse_distribution(obj: dict, where: str = "distribution") -> Pmf | Pmf2:
    """One- or two-dim distribution, detected by shape ('p' vs 'matrix')."""
    has_p = "p" in obj
    has_matrix = "matrix" in obj
    if has_p and has_matrix:
        raise ParseError(f"{where}: both 'p' and 'matrix' present; ambiguous shape")
    if not has_p and not has_matrix:
        raise ParseError(f"{where}: neither 'p' nor 'matrix' present")
    alphabet = _parse_alphabet(obj, where)
    literals: dict[str, Fraction] = {"0": ZERO}
    if has_p:
        return Pmf(alphabet, _read_row(obj["p"], len(alphabet), f"{where} 'p'", literals, parse_rational), literals)
    return Pmf2(alphabet, _parse_matrix(obj, alphabet, where, literals, parse_rational), literals)


def load_distribution(path: str | Path) -> Pmf | Pmf2:
    return parse_distribution(_load_obj(path), where=str(path))


def load_pmf(path: str | Path) -> Pmf:
    dist = load_distribution(path)
    if not isinstance(dist, Pmf):
        raise ParseError(f"{path}: expected a one-dim distribution, found a matrix")
    return dist


def parse_coupling_matrix(obj: dict, where: str = "coupling") -> tuple[Alphabet, Rows]:
    """Alphabet and rows of a one-dim coupling file, each row (columns, pairs).

    Each row lists every cell but those written ``"0"``, at strictly
    increasing columns, and a row with no ``"0"`` lists ``range(N)``.
    Every other literal is parsed in order, so the first bad one is the
    one reported, and ``"0"`` is left out with no parser call; other
    spellings of zero (``"0/7"``, ``"00"``) are parsed and stay listed,
    and validation reads them as zero.  The pairs are the
    literals as written, not reduced, and validation,
    :meth:`~couplingkit.coupling.Coupling.over` given the rows, is the
    caller's; there
    the lcm of the non-zero entries' denominators becomes the scale of
    every sum, so an unreduced literal such as ``"2/6"`` can make it
    larger than the values need.
    """
    alphabet = _parse_alphabet(obj, where)
    if "matrix" not in obj:
        raise ParseError(f"{where}: coupling file must carry a 'matrix'")
    literals: dict[str, tuple[int, int]] = {}
    rows = _parse_matrix(obj, alphabet, where, literals, _ratio_parser())
    return alphabet, [_listed(row, literals) for row in rows]


def load_coupling_matrix(path: str | Path) -> tuple[Alphabet, Rows]:
    return parse_coupling_matrix(_load_obj(path), where=str(path))


def coupling_to_obj(c: Coupling, render: Render = str) -> dict:
    return {
        "alphabet": list(c.alphabet.symbols),
        "matrix": [[render(v) for v in row] for row in c.j],
    }


def coupling_json(c: Coupling | Coupling4, certificate: dict | None = None, fields: dict | None = None) -> str:
    """The coupling file of ``c``, or with ``certificate`` the oracle's solution document.

    Byte for byte ``dump_json(coupling_to_obj(c))`` for a
    :class:`~couplingkit.coupling.Coupling`, ``dump_json(coupling4_to_obj(c))``
    for a :class:`~couplingkit.multidim.Coupling4`, and
    ``dump_json({**fields, "coupling": coupling_to_obj(c), "certificate": certificate})``
    with a certificate, ``fields`` the document's leading entries (none
    for ``oracle --out``'s file), but with no Fraction and no ``str`` of
    a denominator per cell.  The rows are joined into the text once.
    """
    indent = "" if certificate is None else "  "
    inner = indent + "  "
    symbols = _json_list(list(map(json.dumps, c.alphabet.symbols)), inner)
    if isinstance(c, Coupling4):
        body = ['"blocks": ', *_blocks(c, inner)]
    else:
        size = len(c.alphabet)
        rows = (_json_list(_dense(columns, cells, size, '"0"'), inner + "  ") for columns, cells in _cells(c))
        body = ['"matrix": ', *_json_pieces(rows, inner)]
    parts = _json_pieces(['"alphabet": ' + symbols, body], indent, "{}")
    if certificate is not None:
        head = [_json_entry(key, value) for key, value in (fields or {}).items()]
        parts = _json_pieces([*head, ['"coupling": ', *parts], _json_entry("certificate", certificate)], "", "{}")
    parts.append("\n")
    return "".join(parts)


def _cells(c: Coupling) -> Iterator[tuple[Sequence[int], list[str]]]:
    """Each row of ``c`` as (columns, JSON string literals of its listed cells).

    The digits of each distinct denominator are rendered once.
    """
    digits: dict[int, str] = {}
    for columns, pairs in c._pairs():
        yield columns, [f'"{n}"' if d == 1 else f'"{n}/{digits.get(d) or digits.setdefault(d, str(d))}"' for n, d in pairs]


def _blocks(c4: Coupling4, indent: str) -> list[str]:
    """The "blocks" value of :func:`coupling4_to_obj`, in pieces laid out at ``indent``.

    The text of a column that holds no listed cell is rendered once, and
    so is that of a block whose row lists nothing.
    """
    keys = list(map(json.dumps, c4.alphabet.symbols))
    n = len(keys)
    inner = indent + "  "
    zero = [y1 + ": " + _json_list(['"0"'] * n, inner + "  ") for y1 in keys]
    empty = "".join(_json_pieces(zero, inner, "{}"))
    blocks = []
    for label, (columns, cells) in zip(c4.flat.alphabet.symbols, _cells(c4.flat)):
        block = empty
        if cells:
            row = _dense(columns, cells, n * n, '"0"')
            touched = {b // n for b in columns}
            block = "".join(_json_pieces([
                y1 + ": " + _json_list(row[k * n:(k + 1) * n], inner + "  ") if k in touched else zero[k]
                for k, y1 in enumerate(keys)
            ], inner, "{}"))
        blocks.append(json.dumps(label) + ": " + block)
    return _json_pieces(blocks, indent, "{}")


def _json_entry(key: str, value) -> str:
    """``key: value`` as ``json.dumps(indent=2)`` writes it among a top-level object's entries."""
    return json.dumps(key) + ": " + json.dumps(value, indent=2).replace("\n", "\n  ")


def _json_list(items: list[str], indent: str) -> str:
    """A non-empty list of JSON-encoded ``items``, as ``json.dumps(indent=2)`` writes it at ``indent``."""
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _json_pieces(entries: Iterable[str | list[str]], indent: str, brackets: str = "[]") -> list[str]:
    """A non-empty JSON array, or object, laid out as :func:`_json_list` lays out a list, in pieces.

    Each entry is encoded JSON (an object's as ``key: value``), given as
    one string or as a list of pieces; no entry is copied, so the text of
    a large coupling is joined once.
    """
    inner = "\n" + indent + "  "
    parts = []
    for entry in entries:
        parts.append("," + inner)
        if isinstance(entry, str):
            parts.append(entry)
        else:
            parts += entry
    parts[0] = brackets[0] + inner  # the opening bracket in place of the first comma
    parts.append("\n" + indent + brackets[1])
    return parts


def coupling4_to_obj(c4: Coupling4, render: Render = str) -> dict:
    """Nested-block layout: rows (x1,x2) in row-major order, y1 then y2 inside.

    Block (x1, x2) is flat row (x1, x2), cut into N slices of N, one per
    y1, as :func:`parse_coupling4_blocks` reads it back.
    """
    symbols = c4.alphabet.symbols
    n = len(symbols)
    blocks: dict[str, dict[str, list[str]]] = {}
    for label, row in zip(c4.flat.alphabet.symbols, c4.flat.j):
        cells = [render(v) for v in row]
        blocks[label] = {y1: cells[k * n:(k + 1) * n] for k, y1 in enumerate(symbols)}
    return {"alphabet": list(symbols), "blocks": blocks}


def parse_coupling4_blocks(obj: dict, where: str = "coupling4") -> tuple[Alphabet, Rows]:
    """Alphabet and rows of the nested-block layout, as :func:`parse_coupling_matrix`.

    The entries are those of the flat coupling over the product alphabet:
    row (x1, x2) is block (x1, x2), its columns y1 in turn, each indexed
    by y2.  The file holds exactly the N² blocks, each with exactly the N
    columns; the first other key is reported.  A column written all
    ``"0"`` is taken as it is, with no parser call and nothing listed;
    each other column lists its cells at flat columns y1·N + y2 as it is
    read, and a row with no ``"0"`` lists ``range(N²)``.
    """
    alphabet = _parse_alphabet(obj, where)
    symbols = alphabet.symbols
    n = len(symbols)
    blocks = obj.get("blocks")
    if not isinstance(blocks, dict):
        raise ParseError(f"{where}: coupling file must carry 'blocks'")
    rows = []
    literals: dict[str, tuple[int, int]] = {}
    parse = _ratio_parser()
    zeros = ["0"] * n
    starts = range(0, n * n, n)
    full = range(n * n)
    for a in symbols:
        for b in symbols:
            label = alphabet.pair_label(a, b)
            block = blocks.get(label)
            if not isinstance(block, dict):
                raise ParseError(f"{where}: missing block {label!r}")
            columns, pairs = [], []
            for start, c in zip(starts, symbols):
                if c not in block:
                    raise ParseError(f"{where}: block {label!r} missing column {c!r}")
                column = block[c]
                if column != zeros:
                    _read_row(column, n, f"{where} block {label!r} column {c!r}", literals, parse)
                    listed, cells = _listed(column, literals, start)
                    columns += listed
                    pairs += cells
            if len(block) != n:
                _reject_extra_key(block, symbols, f"{where}: block {label!r} has unexpected column")
            rows.append((full if len(columns) == n * n else columns, pairs))
    if len(blocks) != n * n:
        labels = {alphabet.pair_label(a, b) for a in symbols for b in symbols}
        _reject_extra_key(blocks, labels, f"{where}: unexpected block")
    return alphabet, rows


def _reject_extra_key(obj: dict, expected: Container[str], message: str) -> None:
    """Raise ``message`` with the first key of ``obj`` not in ``expected``, if there is one."""
    for key in obj:
        if key not in expected:
            raise ParseError(f"{message} {key!r}")


def load_coupling4_blocks(path: str | Path) -> tuple[Alphabet, Rows]:
    return parse_coupling4_blocks(_load_obj(path), where=str(path))


def read_coupling(path: str | Path) -> tuple[str, dict]:
    """Decode a coupling file once: its kind and its JSON object.

    The kind is "matrix" for a one-dim coupling file and "blocks" for a
    two-dim one; parse the object with :func:`parse_coupling_matrix` or
    :func:`parse_coupling4_blocks`.
    """
    obj = _load_obj(path)
    has_matrix = "matrix" in obj
    has_blocks = "blocks" in obj
    if has_matrix and not has_blocks:
        return "matrix", obj
    if has_blocks and not has_matrix:
        return "blocks", obj
    raise ParseError(f"{path}: expected exactly one of 'matrix' or 'blocks'")


def detect_coupling_kind(path: str | Path) -> str:
    """"matrix" for a one-dim coupling file, "blocks" for a two-dim one."""
    return read_coupling(path)[0]
