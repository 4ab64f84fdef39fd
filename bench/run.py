"""couplingkit benchmark: seeded, closed-loop, single-process workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload audit|transport|roundtrip --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--out FILE]
    python3 bench/run.py --workload all --smoke --seconds 0

The package is imported from ``src/`` of the same checkout, never from an
installed copy; without it the benchmark exits with code 1 and prints no
result.  Inputs are generated from ``--seed`` before timing starts (see
``workloads.py``).  One client runs one operation at a time (closed loop),
cycling over the seeded inputs until at least one whole cycle has run and
the operations have taken ``--seconds`` at reference speed (below), or
1.3 times ``--seconds`` of wall time have passed; with ``--trace 1``, whole
cycles for about ``--seconds`` of wall time.  Every output is checked
exactly; an operation that exits with an unexpected code, raises or fails
its check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics.  Times are wall times
converted to seconds at reference speed: a fixed stdlib ``Fraction``
computation is timed before and after every operation, and inside every
setup child, and each duration is scaled by its nominal time over the
measured one (see ``time_scale``).  On a shared host this removes most of the drift that
co-tenants cause; the raw wall-time medians are printed beside them.

* ``op_p50_s``: median time of one operation;
* ``op_tail_s``: the highest percentile with at least 10 operations beyond
  it, i.e. the 11th-slowest operation; its percentile is printed;
* ``ops_per_s``: operations completed per second of operation time;
* ``setup_s``: median time for a fresh interpreter to
  ``import couplingkit.cli``, which every CLI subprocess pays on top of
  ``op_p50_s`` (one untimed spawn first, so bytecode is compiled; each
  child times the reference work after its import);
* ``peak_rss_mb``: peak resident memory of this process.

It also prints, without reporting them as metrics, ``failed_frac`` and
the median per operation group: ``write_p50_s`` (``couple --out`` and
``oracle --out``) and ``read_p50_s`` (``verify``) on ``roundtrip``.

``--trace 1`` runs each operation twice, untraced and traced in
alternating order, over whole cycles.  The tracer (``tracer.py``) wraps
the package's public callables from outside.  For each layer it reports
``<layer>.self_s`` and ``<layer>.calls``: the median, over the traced
operations that enter the layer, of that operation's self time in the
layer and its number of calls (0 when no operation enters it).  It also
reports ``coupling.entries`` (sum of N^2 over validated couplings, median
per operation that validates one), ``rational.denom_bits_max`` (largest
parsed denominator in the run) and ``tracing_overhead_frac`` (summed
traced over summed untraced time, minus 1).  The per-operation layer
totals are written to ``.bench_work/trace-<workload>-seed<seed>.json``.

Known limits: ``roundtrip`` denominators are about 1000 bits, so the
coupling entries stay under Python's 4300-digit int-to-str limit.  At
about 2200-digit denominators that limit makes ``couple --kind
independent`` crash with a traceback; that is a robustness defect with
its own test, and it is not measured here.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("audit", "transport", "roundtrip")
SETUP_SPAWNS = 9
# Nominal duration of reference_work() at reference speed; see time_scale().
REFERENCE_SECONDS = 0.004
# An untraced run stops after this many times --seconds of wall time at the
# latest, so a very slow host still finishes in bounded time.
WALL_LIMIT = 1.3
KNOWN_LIMITS = [
    "roundtrip uses about 1000-bit denominators: products of two or three "
    "such entries stay under Python's 4300-digit int-to-str limit",
    "at about 2200-digit denominators that limit makes 'couple --kind "
    "independent' crash with a traceback (a robustness defect with its own "
    "test); it is not measured here",
]


def import_package() -> None:
    """Put the checkout's ``src`` first on the path and import couplingkit from it."""
    package_dir = SRC / "couplingkit"
    if not (package_dir / "__init__.py").is_file():
        sys.exit(f"error: no couplingkit package at {package_dir}")
    sys.path.insert(0, str(SRC))
    import couplingkit

    if Path(couplingkit.__file__).resolve().parent != package_dir.resolve():
        sys.exit(f"error: couplingkit was imported from {couplingkit.__file__}, not {package_dir}")


def environment() -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": sha,
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }


def reference_work() -> Fraction:
    """Fixed stdlib-only Fraction arithmetic, the yardstick for the host's speed."""
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(1, i % 97 + 1)
    return total


def time_reference() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def time_scale(before: float, after: float) -> float:
    """Factor that converts a duration measured between two reference timings
    to seconds at reference speed.

    Co-tenants on a shared host change its speed by tens of percent within
    seconds, and CPU time moves with wall time, so a raw median drifts
    between runs of the same code.  Dividing by the reference work timed
    just before and after each operation cancels that drift.
    """
    return 2 * REFERENCE_SECONDS / (before + after)


def measure_setup(spawns: int) -> list[tuple[float, float]]:
    """(wall seconds, scale) of fresh interpreters importing couplingkit.cli.

    A child may run on another CPU than this process, so each child times
    the reference work itself right after the import; that time is taken
    off its wall time and sets its scale.
    """
    child = "\n".join([
        "import couplingkit.cli",
        "from fractions import Fraction",
        "from time import perf_counter",
        inspect.getsource(reference_work),
        "start = perf_counter()",
        "reference_work()",
        "print(perf_counter() - start)",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(spawns + 1):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", child], env=env, cwd=ROOT, text=True,
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, check=True,
                              timeout=60)
        reference = float(proc.stdout)
        samples.append((perf_counter() - start - reference, REFERENCE_SECONDS / reference))
    return samples[1:]


def _short(text: str) -> str:
    return text if len(text) <= 300 else text[:300] + "..."


def execute(op):
    """Run one operation; returns (seconds, outcome, failure or None)."""
    start = perf_counter()
    try:
        outcome = op.run()
    except Exception as exc:  # an operation that raises is a failed operation
        return perf_counter() - start, None, _short(f"raised {type(exc).__name__}: {exc}")
    return perf_counter() - start, outcome, None


def verdict(op, outcome, failure):
    if failure is not None:
        return failure
    try:
        failure = op.check(outcome)
    except Exception as exc:  # malformed output makes the check itself raise
        failure = f"output check raised {type(exc).__name__}: {exc}"
    return None if failure is None else _short(failure)


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, op, failure) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{op.label}: {failure}")


def run_untraced(ops, seconds: float, tally: Tally) -> list[tuple]:
    """(op, wall seconds, scale) per operation.

    Runs at least one whole cycle, then stops once the operations have taken
    ``seconds`` at reference speed, so a slow spell on the host does not
    change how many operations, and which, a run measures.
    """
    records = []
    measured = 0.0
    before = time_reference()
    start = perf_counter()
    i = 0
    while i < len(ops) or (measured < seconds and perf_counter() - start < WALL_LIMIT * seconds):
        op = ops[i % len(ops)]
        duration, outcome, failure = execute(op)
        after = time_reference()
        tally.add(op, verdict(op, outcome, failure))
        scale = time_scale(before, after)
        records.append((op, duration, scale))
        measured += duration * scale
        before = after
        i += 1
    return records


def run_traced(ops, seconds: float, tally: Tally, tracer) -> list[dict]:
    """Each operation untraced and traced, alternating which goes first.

    Whole cycles only, so counts repeat exactly: at least one, and another
    only while it is expected to end within ``seconds``.
    """
    records = []
    start = cycle_start = perf_counter()
    i = 0
    while True:
        if i and i % len(ops) == 0:
            now = perf_counter()
            if now - start + (now - cycle_start) > seconds:
                break
            cycle_start = now
        op = ops[i % len(ops)]
        record = {"op": op.label}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                duration, outcome, failure = execute(op)
            finally:
                tracer.uninstall()
            tally.add(op, verdict(op, outcome, failure))
            record["traced_s" if traced else "untraced_s"] = duration
        layers, counters = tracer.take()
        record["layers"] = {name: {"self_s": ns / 1e9, "calls": calls}
                            for name, (ns, calls) in layers.items()}
        record["counters"] = counters
        records.append(record)
        i += 1
    return records


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the 11th-largest sample: 10 samples lie beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(records, setup) -> tuple[dict, dict]:
    """Metrics in seconds at reference speed; raw wall-time medians go to the details."""
    durations = [d * scale for _, d, scale in records]
    setup_times = [d * scale for d, scale in setup]
    tail_value, tail_pct = tail(durations)
    n = len(durations)
    metrics = {
        "op_p50_s": (statistics.median(durations), "s", f"n={n}"),
        "op_tail_s": (tail_value, "s", f"p{tail_pct:.1f}, n={n}"),
        "ops_per_s": (n / sum(durations), "1/s", f"n={n}"),
        "setup_s": (statistics.median(setup_times), "s", f"n={len(setup_times)} spawns"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "ru_maxrss"),
    }
    groups = {}
    for op, d, scale in records:
        groups.setdefault(op.group, []).append(d * scale)
    details = {"samples": n, "op_tail_percentile": tail_pct,
               "setup_samples": len(setup_times),
               "host_speed_p50": statistics.median(scale for _, _, scale in records),
               "wall_op_p50_s": statistics.median(d for _, d, _ in records),
               "wall_setup_s": statistics.median(d for d, _ in setup),
               "groups": {g: {"p50_s": statistics.median(ds), "samples": len(ds)}
                          for g, ds in groups.items()}}
    return metrics, details


def per_layer(records, layer_names) -> tuple[dict, dict]:
    metrics = {}
    for layer in layer_names:
        entered = [r["layers"][layer] for r in records if layer in r["layers"]]
        note = f"n={len(entered)} of {len(records)} ops"
        if entered:
            metrics[f"{layer}.self_s"] = (statistics.median(e["self_s"] for e in entered), "s", note)
            metrics[f"{layer}.calls"] = (statistics.median(e["calls"] for e in entered), "count", note)
        else:
            metrics[f"{layer}.self_s"] = (0.0, "s", note)
            metrics[f"{layer}.calls"] = (0, "count", note)
    validating = [r["counters"]["coupling.entries"] for r in records
                  if "coupling.validate" in r["layers"]]
    metrics["coupling.entries"] = (statistics.median(validating) if validating else 0, "count",
                                   f"n={len(validating)} of {len(records)} ops")
    metrics["rational.denom_bits_max"] = (
        max(r["counters"]["rational.denom_bits_max"] for r in records), "bits", "max over the run")
    traced = sum(r["traced_s"] for r in records)
    untraced = sum(r["untraced_s"] for r in records)
    metrics["tracing_overhead_frac"] = (traced / untraced - 1, "frac",
                                        f"{traced:.3f} s traced / {untraced:.3f} s untraced")
    return metrics, {"samples": len(records)}


def run_one(args) -> dict:
    import_package()
    import tracer as tracer_mod
    import workloads

    env = environment()
    mode = "smoke" if args.smoke else "full"
    params = workloads.PARAMS[args.workload][mode]
    print(f"workload {args.workload} ({mode})  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("env " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print("params " + json.dumps(params))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tally = Tally()
    try:
        ops = workloads.build(args.workload, args.seed, args.smoke, workdir)
        if args.trace:
            records = run_traced(ops, args.seconds, tally, tracer_mod.Tracer())
            metrics, details = per_layer(records, tracer_mod.LAYERS)
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps(records), encoding="utf-8")
            print(f"per-operation layer totals written to {trace_path.relative_to(ROOT)}")
        else:
            setup = measure_setup(1 if args.smoke else SETUP_SPAWNS)
            records = run_untraced(ops, args.seconds, tally)
            metrics, details = end_to_end(records, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit, note) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}  ({note})")
    failed = len(tally.failures)
    print(f"{'failed_frac':34s} {failed / tally.attempted:.6g}  ({failed} of {tally.attempted} ops)")
    if not args.trace:
        if len(details["groups"]) > 1:
            for group, g in details["groups"].items():
                print(f"{group + '_p50_s':34s} {g['p50_s']:.6g} s  (n={g['samples']})")
        print(f"{'raw wall op_p50_s, setup_s':34s} {details['wall_op_p50_s']:.6g} s, "
              f"{details['wall_setup_s']:.6g} s  (host at {details['host_speed_p50']:.3g}x "
              "reference speed)")
    for reason in tally.failures[:5]:
        print(f"FAILED {reason}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    details["failed_frac"] = failed / tally.attempted
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "params": params, "env": env,
            "details": details, "result": result}


def run_all(args) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    runs = []
    WORK.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        for trace in (0, 1):
            fd, record_path = tempfile.mkstemp(suffix=".json", dir=WORK)
            os.close(fd)
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace), "--out", record_path]
            if args.smoke:
                cmd.append("--smoke")
            try:
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
                sys.stdout.write(proc.stdout)
                if proc.returncode != 0:
                    sys.exit(f"error: {workload} (trace {trace}) exited with {proc.returncode}")
                runs.append(json.loads(Path(record_path).read_text(encoding="utf-8")))
            finally:
                os.unlink(record_path)
    for limit in KNOWN_LIMITS:
        print(f"known limit: {limit}")
    return {"env": runs[0]["env"], "known_limits": KNOWN_LIMITS, "runs": runs,
            "result": {
                "correct": all(r["result"]["correct"] for r in runs),
                "attempted": sum(r["result"]["attempted"] for r in runs),
                "failed": sum(r["result"]["failed"] for r in runs),
                "workloads": {r["workload"] + (".traced" if r["trace"] else ""): r["result"]["metrics"]
                              for r in runs},
            }}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="couplingkit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (N=4), all checks on")
    parser.add_argument("--out", metavar="FILE", help="also write the full record as JSON")
    args = parser.parse_args(argv)
    record = run_all(args) if args.workload == "all" else run_one(args)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
