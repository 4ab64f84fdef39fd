"""Smoke tests for the benchmark harness, so that it does not rot.

Every workload runs at tiny sizes (N=4) with all output checks on.  Run
from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402  (needs couplingkit on the path)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def smoke(workload: str, trace: str, seed: str = "7") -> dict:
    proc = run_bench("--workload", workload, "--seed", seed, "--seconds", "0",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_traced_counts_repeat_exactly():
    def counts():
        metrics = smoke("roundtrip", "1", seed="5")["metrics"]
        return {name: m["value"] for name, m in metrics.items()
                if m["unit"] in ("count", "bits")}

    first = counts()
    assert first == counts()
    assert first["rational.denom_bits_max"] > 1000
    assert first["multidim.calls"] > 0 and first["cli.calls"] == 1


def test_same_seed_gives_same_inputs(tmp_path):
    def inputs(seed, name):
        directory = tmp_path / name
        directory.mkdir()
        workloads.build("roundtrip", seed, True, directory)
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    assert inputs(3, "a") == inputs(3, "b")
    assert inputs(3, "a2") != inputs(4, "c")


def test_audit_check_rejects_a_wrong_distance(tmp_path):
    (op,) = workloads.build("audit", 1, True, tmp_path)
    code, stdout, stderr = op.run()
    report = json.loads(stdout)
    report["v"] = str(Fraction(report["v"]) + Fraction(1, 10**9))
    assert op.check((code, json.dumps(report), stderr)) is not None
    assert op.check((code, stdout, stderr)) is None
    assert op.check((2, stdout, stderr)) is not None


def test_transport_check_rejects_a_perturbed_certificate(tmp_path):
    op = workloads.build("transport", 1, True, tmp_path)[0]
    coupling, certificate, certified = op.run()
    bad = dataclasses.replace(certificate, objective=certificate.objective + Fraction(1, 10**9))
    assert op.check((coupling, bad, certified)) is not None
    assert op.check((coupling, certificate, False)) is not None
    assert op.check((coupling, certificate, certified)) is None


def test_roundtrip_check_rejects_a_tampered_coupling_file(tmp_path):
    couple = workloads.build("roundtrip", 1, True, tmp_path)[0]
    outcome = couple.run()
    (written,) = tmp_path.glob("C_*.json")
    obj = json.loads(written.read_text(encoding="utf-8"))
    row = obj["matrix"][0]
    row[0], row[1] = row[1], row[0]
    written.write_text(json.dumps(obj), encoding="utf-8")
    assert couple.check(outcome) is not None
    assert couple.check(couple.run()) is None


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
