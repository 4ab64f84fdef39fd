"""The mutation smoke test in ``tools/mutants.py``; the whole list runs in its own CI step."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_every_mutant_applies_to_the_source(mutant):
    source = (ROOT / "src" / "couplingkit" / mutant.path).read_text(encoding="utf-8")
    mutated = mutants.mutate(source, mutant)
    assert mutated != source
    assert all((ROOT / "tests" / name).is_file() for name in mutant.tests)


def test_a_stale_piece_raises():
    stale = mutants.MUTANTS[0]._replace(old="no such line")
    with pytest.raises(ValueError, match="is not one piece of one line"):
        mutants.mutate("x = 1\n", stale)


def test_one_mutant_is_killed(capsys):
    assert mutants.main(["certify-rejects-tight-dual"]) == 0
    assert capsys.readouterr().out.startswith("killed    certify-rejects-tight-dual  by test_transport.py::")
