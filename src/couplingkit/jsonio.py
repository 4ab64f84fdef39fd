"""JSON file formats for distributions and couplings.

All probabilities travel as rational strings ("1/9", "0.03750", "2"),
parsed exactly, each distinct literal once per file.  Shapes:

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
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .coupling import Coupling
from .distributions import Alphabet, Pmf, Pmf2
from .errors import ParseError
from .multidim import Coupling4
from .rational import decimal_string, parse_rational

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
    if not isinstance(symbols, list) or not all(isinstance(s, str) for s in symbols):
        raise ParseError(f"{where}: 'alphabet' must be a list of strings")
    return Alphabet(symbols)


class _Literals(dict):
    """Literal -> Fraction for one file; a literal that fails to parse is not stored."""

    def __missing__(self, text: str) -> Fraction:
        value = self[text] = parse_rational(text)
        return value


def _parse_row(row, n: int, where: str, literals: _Literals) -> tuple[Fraction, ...]:
    if not isinstance(row, list) or len(row) != n:
        raise ParseError(f"{where}: expected a list of {n} rational strings")
    # Lists and dicts cannot be keys; parse_rational rejects every non-string.
    return tuple(literals[v] if isinstance(v, str) else parse_rational(v) for v in row)


def _parse_matrix(obj: dict, alphabet: Alphabet, where: str) -> tuple[tuple[Fraction, ...], ...]:
    n = len(alphabet)
    matrix = obj.get("matrix")
    if not isinstance(matrix, list) or len(matrix) != n:
        raise ParseError(f"{where}: 'matrix' must be a list of {n} rows")
    literals = _Literals()
    return tuple(_parse_row(row, n, f"{where} row {i}", literals) for i, row in enumerate(matrix))


def parse_distribution(obj: dict, where: str = "distribution") -> Pmf | Pmf2:
    """One- or two-dim distribution, detected by shape ('p' vs 'matrix')."""
    has_p = "p" in obj
    has_matrix = "matrix" in obj
    if has_p and has_matrix:
        raise ParseError(f"{where}: both 'p' and 'matrix' present; ambiguous shape")
    if not has_p and not has_matrix:
        raise ParseError(f"{where}: neither 'p' nor 'matrix' present")
    alphabet = _parse_alphabet(obj, where)
    if has_p:
        probs = _parse_row(obj["p"], len(alphabet), f"{where} 'p'", _Literals())
        return Pmf(alphabet, probs)
    return Pmf2(alphabet, _parse_matrix(obj, alphabet, where))


def load_distribution(path: str | Path) -> Pmf | Pmf2:
    return parse_distribution(_load_obj(path), where=str(path))


def load_pmf(path: str | Path) -> Pmf:
    dist = load_distribution(path)
    if not isinstance(dist, Pmf):
        raise ParseError(f"{path}: expected a one-dim distribution, found a matrix")
    return dist


def pmf_to_obj(pmf: Pmf, render: Render = str) -> dict:
    return {
        "alphabet": list(pmf.alphabet.symbols),
        "p": [render(v) for v in pmf.p],
    }


def pmf2_to_obj(pmf2: Pmf2, render: Render = str) -> dict:
    return {
        "alphabet": list(pmf2.alphabet.symbols),
        "matrix": [[render(v) for v in row] for row in pmf2.p],
    }


def parse_coupling_matrix(obj: dict, where: str = "coupling") -> tuple[Alphabet, tuple[tuple[Fraction, ...], ...]]:
    """Raw alphabet + matrix of a one-dim coupling file; validation is the caller's."""
    alphabet = _parse_alphabet(obj, where)
    if "matrix" not in obj:
        raise ParseError(f"{where}: coupling file must carry a 'matrix'")
    return alphabet, _parse_matrix(obj, alphabet, where)


def load_coupling_matrix(path: str | Path) -> tuple[Alphabet, tuple[tuple[Fraction, ...], ...]]:
    return parse_coupling_matrix(_load_obj(path), where=str(path))


def coupling_to_obj(c: Coupling, render: Render = str) -> dict:
    return {
        "alphabet": list(c.alphabet.symbols),
        "matrix": [[render(v) for v in row] for row in c.j],
    }


def coupling4_to_obj(c4: Coupling4, render: Render = str) -> dict:
    """Nested-block layout: rows (x1,x2) in row-major order, y1 then y2 inside."""
    alphabet = c4.alphabet
    n = len(alphabet)
    blocks: dict[str, dict[str, list[str]]] = {}
    for x1 in range(n):
        for x2 in range(n):
            label = alphabet.pair_label(alphabet.symbols[x1], alphabet.symbols[x2])
            blocks[label] = {
                alphabet.symbols[y1]: [render(c4.value(x1, x2, y1, y2)) for y2 in range(n)]
                for y1 in range(n)
            }
    return {"alphabet": list(alphabet.symbols), "blocks": blocks}


def parse_coupling4_blocks(obj: dict, where: str = "coupling4") -> tuple[Alphabet, list]:
    """Raw alphabet + four-index tensor from the nested-block layout."""
    alphabet = _parse_alphabet(obj, where)
    n = len(alphabet)
    blocks = obj.get("blocks")
    if not isinstance(blocks, dict):
        raise ParseError(f"{where}: coupling file must carry 'blocks'")
    tensor: list = [[None] * n for _ in range(n)]
    literals = _Literals()
    for x1, a in enumerate(alphabet.symbols):
        for x2, b in enumerate(alphabet.symbols):
            label = alphabet.pair_label(a, b)
            block = blocks.get(label)
            if not isinstance(block, dict):
                raise ParseError(f"{where}: missing block {label!r}")
            rows = []
            for y1, c in enumerate(alphabet.symbols):
                if c not in block:
                    raise ParseError(f"{where}: block {label!r} missing column {c!r}")
                where_c = f"{where} block {label!r} column {c!r}"
                rows.append(_parse_row(block[c], n, where_c, literals))
            tensor[x1][x2] = rows
    return alphabet, tensor


def load_coupling4_blocks(path: str | Path) -> tuple[Alphabet, list]:
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
