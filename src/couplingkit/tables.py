"""Bundled worked examples and golden-fixture regeneration.

Two fixed input pairs exercise every construction in the package:

* the ramp/uniform pair: P = (0.1, 0.2, 0.3, 0.4) against the uniform
  distribution on four symbols, with its independent coupling, its
  product-residual maximal coupling, and one hand-picked coupling that
  is neither (committed as data and revalidated on every regeneration);
* the diag/band pair: a diagonal two-dim distribution (both coordinates
  equal, uniform over three symbols) against a banded one, with the
  maximal, constrained (x1 = x2 = y1), and independent four-index
  couplings.

:func:`generate_fixtures` recomputes all six tables from first
principles and renders them to canonical bytes; regeneration is pure, so
repeated runs are byte-identical.  :func:`sync_fixtures` compares the
regenerated content against the files in a fixtures directory, reporting
cell-level differences for any tampered file and creating missing ones.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .coupling import Coupling, coupling_independent, coupling_maximal
from .distributions import Alphabet, Pmf, Pmf2
from .jsonio import (
    coupling4_to_obj,
    coupling_to_obj,
    decimal_renderer,
    dump_json,
)
from .multidim import (
    coupling4_constrained,
    coupling4_independent,
    coupling4_maximal,
)
from .rational import parse_rational

FIXTURES_ENV_VAR = "COUPLINGKIT_FIXTURES"

# Hand-picked coupling of the ramp/uniform pair: valid marginals, but neither
# independent nor maximal (mismatch 19/40 strictly between 1/5 and 3/4).
GENERIC_COUPLING_ROWS = (
    ("0.06250", "0.01250", "0.01250", "0.01250"),
    ("0.02500", "0.12500", "0.02500", "0.02500"),
    ("0.05625", "0.04375", "0.16250", "0.03750"),
    ("0.10625", "0.06875", "0.05000", "0.17500"),
)


def ramp_uniform_pair() -> tuple[Pmf, Pmf]:
    """Four-symbol pair: ramp (0.1, 0.2, 0.3, 0.4) vs uniform."""
    alphabet = Alphabet.of_size(4)
    ramp = Pmf(alphabet, tuple(parse_rational(t) for t in ("0.1", "0.2", "0.3", "0.4")))
    return ramp, Pmf.uniform(alphabet)


def diag_band_pair() -> tuple[Pmf2, Pmf2]:
    """Three-symbol two-dim pair: equal-coordinates diagonal vs a banded matrix."""
    alphabet = Alphabet.of_size(3)
    diag = Pmf2.diagonal(Pmf.uniform(alphabet))
    band_rows = (
        ("1/9", "2/9", "0"),
        ("1/9", "1/9", "1/9"),
        ("0", "1/9", "2/9"),
    )
    band = Pmf2(alphabet, tuple(tuple(parse_rational(t) for t in row) for row in band_rows))
    return diag, band


def generic_ramp_uniform_coupling():
    """The committed hand-picked coupling, revalidated against its marginals."""
    p, q = ramp_uniform_pair()
    rows = tuple(tuple(parse_rational(t) for t in row) for row in GENERIC_COUPLING_ROWS)
    return Coupling(rows, p, q)


def generate_fixtures() -> dict[str, str]:
    """All six golden tables, recomputed from first principles.

    One-dim tables render as 5-place decimals, two-dim tables as exact
    fractions; both forms parse back exactly.
    """
    p, q = ramp_uniform_pair()
    p2, q2 = diag_band_pair()
    dec = decimal_renderer(5)
    return {
        "ramp_uniform_independent.json": dump_json(
            coupling_to_obj(coupling_independent(p, q), dec)
        ),
        "ramp_uniform_maximal.json": dump_json(
            coupling_to_obj(coupling_maximal(p, q), dec)
        ),
        "ramp_uniform_generic.json": dump_json(
            coupling_to_obj(generic_ramp_uniform_coupling(), dec)
        ),
        "diag_band_maximal.json": dump_json(
            coupling4_to_obj(coupling4_maximal(p2, q2))
        ),
        "diag_band_constrained.json": dump_json(
            coupling4_to_obj(coupling4_constrained(p2, q2))
        ),
        "diag_band_independent.json": dump_json(
            coupling4_to_obj(coupling4_independent(p2, q2))
        ),
    }


def packaged_fixtures_dir() -> Path:
    return Path(__file__).parent / "fixtures"


def resolve_fixtures_dir(explicit: str | None = None) -> Path:
    """Priority: explicit argument, then COUPLINGKIT_FIXTURES, then packaged dir."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(FIXTURES_ENV_VAR)
    if env:
        return Path(env)
    return packaged_fixtures_dir()


def _diff_values(path: str, expected, found, out: list[str]) -> None:
    if type(expected) is not type(found):
        out.append(f"{path}: expected {expected!r}, found {found!r}")
        return
    if isinstance(expected, dict):
        for key in expected.keys() | found.keys():
            if key not in expected:
                out.append(f"{path}.{key}: unexpected key")
            elif key not in found:
                out.append(f"{path}.{key}: missing key")
            else:
                _diff_values(f"{path}.{key}", expected[key], found[key], out)
    elif isinstance(expected, list):
        if len(expected) != len(found):
            out.append(f"{path}: expected {len(expected)} entries, found {len(found)}")
            return
        for i, (e, f) in enumerate(zip(expected, found)):
            _diff_values(f"{path}[{i}]", e, f, out)
    elif expected != found:
        out.append(f"{path}: expected {expected!r}, found {found!r}")


def diff_fixture(expected_text: str, found_text: str) -> list[str]:
    """Cell-level differences between canonical and on-disk fixture content."""
    if expected_text == found_text:
        return []
    try:
        found = json.loads(found_text)
    except json.JSONDecodeError as exc:
        return [f"on-disk file is not valid JSON: {exc}"]
    expected = json.loads(expected_text)
    out: list[str] = []
    _diff_values("$", expected, found, out)
    if not out:
        # semantically equal but different bytes (whitespace, key order)
        out.append("content matches but serialization bytes differ")
    return out


@dataclass(frozen=True)
class FixtureResult:
    name: str
    status: str  # "ok" | "created" | "mismatch"
    diff: tuple[str, ...] = ()


def sync_fixtures(directory: Path) -> list[FixtureResult]:
    """Regenerate into ``directory``; report per-fixture status.

    Missing files are created; matching files are confirmed; differing
    files are left untouched (tamper evidence) and reported with a
    cell-level diff.
    """
    directory.mkdir(parents=True, exist_ok=True)
    results = []
    for name, content in generate_fixtures().items():
        target = directory / name
        if not target.exists():
            target.write_text(content, encoding="utf-8")
            results.append(FixtureResult(name=name, status="created"))
            continue
        found = target.read_text(encoding="utf-8")
        if found == content:
            results.append(FixtureResult(name=name, status="ok"))
        else:
            results.append(
                FixtureResult(
                    name=name,
                    status="mismatch",
                    diff=tuple(diff_fixture(content, found)),
                )
            )
    return results
