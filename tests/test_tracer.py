"""The benchmark tracer in ``bench/tracer.py`` still finds every callable it wraps.

The tracer resolves each ``LAYERS`` target by name when it is built, so
renaming or deleting one of them in ``src/`` breaks ``bench/run.py
--trace``; this test makes that a tier-1 failure.
"""

import importlib.util
from fractions import Fraction as F
from pathlib import Path

import couplingkit
from couplingkit import Alphabet, Pmf

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)


def test_every_target_resolves_and_installs_and_uninstalls():
    tracer = tracer_module.Tracer()
    targets = sum(map(len, tracer_module.LAYERS.values()))
    assert len(tracer._bindings) >= targets
    try:
        tracer.install()
        assert all(vars(owner)[name] is wrapper for owner, name, _, wrapper in tracer._bindings)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[name] is original for owner, name, original, _ in tracer._bindings)


def test_builders_are_seen_through_the_constructor():
    # Coupling.over must construct through Coupling.__init__, which the
    # coupling.validate layer and the coupling.entries counter wrap.
    alphabet = Alphabet(["1", "2", "3"])
    p = Pmf(alphabet, (F(1, 2), F(1, 3), F(1, 6)))
    q = Pmf.uniform(alphabet)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        couplingkit.coupling_maximal(p, q)  # looked up now, so the wrapper is called
    finally:
        tracer.uninstall()
    layers, counters = tracer.take()
    assert layers["coupling.build"][1] == 1
    assert layers["coupling.validate"][1] == 1
    assert counters["coupling.entries"] == 9
