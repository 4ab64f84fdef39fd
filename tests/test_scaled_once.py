"""Each distribution is scaled to ints once, by its validation, whatever the command.

Every scaling helper that any module of the package holds is counted
with the values it is given, and each command runs through ``cli.main``
on one-dim and two-dim pairs.  No call may receive an entry of P or Q:
every consumer reads the ints validation kept.  The entries are chosen
strictly between 0 and 1, so they cannot be mistaken for the 0/1
potentials of the oracle's certificate, which are scaled.
"""

import json
import sys
from fractions import Fraction

import pytest

from couplingkit import cli

F = Fraction
HELPERS = ("scaled", "common_denominator", "numerators_over")
PAIRS = {
    "one-dim": (["a", "b", "c", "d"], ["1/10", "1/5", "3/10", "2/5"], ["3/7", "1/7", "2/7", "1/7"]),
    "two-dim": (["1", "2"], [["1/3", "1/6"], ["1/6", "1/3"]], [["1/9", "2/9"], ["4/9", "2/9"]]),
}


@pytest.fixture
def scaling_calls(monkeypatch):
    """Every value handed to a scaling helper of any package module, one list per call."""
    calls = []
    modules = [m for name, m in sys.modules.items() if name.startswith("couplingkit.")]
    for module in modules:
        for name in HELPERS:
            if hasattr(module, name):

                def counted(*args, _original=getattr(module, name)):
                    values = list(args[-1])
                    calls.append(values)
                    return _original(*args[:-1], values)

                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("dim", PAIRS)
def test_no_command_scales_a_distribution_again(dim, scaling_calls, tmp_path, capsys):
    alphabet, p, q = PAIRS[dim]
    key = "p" if dim == "one-dim" else "matrix"
    pq = []
    for name, values in (("P", p), ("Q", q)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"alphabet": alphabet, key: values}), encoding="utf-8")
        pq.append(str(path))
    coupling = str(tmp_path / "C.json")
    commands = [
        ["vdist", *pq],
        ["couple", *pq, "--kind", "maximal", "--out", coupling],
        ["verify", coupling, *pq],
        ["couple", *pq, "--kind", "independent"],
        ["oracle", *pq],
    ]
    if dim == "one-dim":
        commands.append(["audit", pq[0]])
    entries = {F(x) for values in (p, q) for x in (values if dim == "one-dim" else sum(values, []))}
    assert all(0 < x < 1 for x in entries)
    received = {}
    for argv in commands:
        scaling_calls.clear()
        assert cli.main(argv) == 0, argv
        received[argv[0]] = {x for values in scaling_calls for x in values}
        assert not received[argv[0]] & entries, (argv, scaling_calls)
    capsys.readouterr()
    # the oracle scales its certificate's potentials, so the helpers were counted
    assert received["oracle"] and received["oracle"] <= {-1, 0, 1}
