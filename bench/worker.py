"""One benchmark process: a fresh interpreter that imports ``obsvalue.cli``,
builds one workload's inputs, and then (unless ``--mode setup``) runs the
workload.  Its set-up time is the import of ``obsvalue.cli`` plus the build,
timed in-process after the benchmark's own modules are loaded, so it holds
neither interpreter start-up nor the benchmark's imports.

``--mode setup`` only reports that set-up time.
``--mode passes`` repeats timed passes (at least one) while the next one is
expected to end within ``--seconds``, and checks the first pass's outputs.
Before each pass, and after the last one until there are ``SETUP_PROBES``,
it starts a ``--mode setup`` process, so that the set-up samples fall in
the same stretch of the run as the passes; then it times the calibration
kernel (``calibration.py``), which gives the pass that follows in reference
seconds.
``--mode trace`` alternates untraced and traced passes the same way (at
least two of each), checks that both give byte-identical outputs, and
derives the per-layer metrics from the spans.
A pass that raises is a failed check, not a crash.
The last stdout line is a JSON result for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import tracing  # noqa: E402

_IMPORT_START = time.perf_counter()
import numpy  # noqa: E402
import obsvalue.cli  # noqa: E402,F401  (the import setup_s measures)
IMPORT_S = time.perf_counter() - _IMPORT_START

# Benchmark code, imported after the timed imports because it imports numpy.
import calibration  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 6  # fresh set-up processes per untraced run, at least
_PARSE_ERRORS = (KeyError, ValueError, TypeError, IndexError)


def _probe(workload, seed: int) -> float:
    """Set-up time of a fresh ``--mode setup`` process."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload.name,
         "--seed", str(seed), "--mode", "setup"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _timed(workload, inputs, rec) -> tuple[float, dict | None, str | None]:
    """(seconds, outputs, None) of one pass, or (seconds, None, the
    exception's repr) if it raised.  Garbage left by the previous pass is
    collected before the clock starts, so every pass starts from a like
    heap."""
    gc.collect()
    start = time.perf_counter()
    try:
        outputs = workload.run(inputs, rec)
    except Exception as exc:  # reported as a failed check
        return time.perf_counter() - start, None, repr(exc)
    return time.perf_counter() - start, outputs, None


def _raised_check(raised: list[str], passes: int) -> tuple:
    return ("no pass raised", not raised, "; ".join(raised)
            or f"{passes} passes")


def _check(workload, outputs) -> tuple[list, dict]:
    """(check results, accuracy figures) of one pass's outputs; outputs
    that cannot be parsed fail one check, and no outputs (every pass
    raised) give no checks here."""
    if outputs is None:
        return [], {}
    try:
        checks = workload.check(outputs, workloads.load_reference(
            workload.name)["outputs"]).results
        return checks, workload.accuracy(outputs)
    except _PARSE_ERRORS as exc:
        return [("outputs parse", False, repr(exc))], {}


def _digest(outputs) -> str:
    return hashlib.sha256(workloads.canonical(outputs).encode()).hexdigest()


def _another(times: list[float], t0: float, seconds: float,
             minimum: int) -> bool:
    """Whether to start another pass: at least ``minimum``, then while the
    next one is expected to end within the run's ``seconds``."""
    if len(times) < minimum:
        return True
    return (time.perf_counter() - t0 + statistics.median(times)
            <= seconds)


def run_passes(workload, inputs, seconds: float, seed: int) -> dict:
    times, ref_times, texts, raised = [], [], set(), []
    setup = []
    first = None
    t0 = time.perf_counter()
    while not raised and _another(times, t0, seconds, 1):
        setup.append(_probe(workload, seed))
        kernel_s = calibration.measure()
        elapsed, outputs, error = _timed(workload, inputs, None)
        times.append(elapsed)
        ref_times.append(calibration.scaled(elapsed, kernel_s))
        if error is not None:
            raised.append(error)
            continue
        first = first if first is not None else outputs
        texts.add(workloads.canonical(outputs))
    while len(setup) < SETUP_PROBES:
        setup.append(_probe(workload, seed))
    checks, accuracy = _check(workload, first)
    checks.append(("repeated passes give byte-identical outputs",
                   len(texts) <= 1, f"{len(times)} passes"))
    checks.append(_raised_check(raised, len(times)))
    return {"pass_s": times, "pass_ref_s": ref_times, "setup_s": setup,
            "checks": checks,
            "accuracy": accuracy, "outputs_sha256": _digest(first)}


def _repeat_check(per_pass: list[dict]) -> tuple[tuple, list[str]]:
    """Check that must-repeat counts agree between traced passes of one
    seed; any other count that differs is returned as a note."""
    differ, notes = [], []
    first = per_pass[0]
    for later in per_pass[1:]:
        for span in sorted(set(first) | set(later)):
            a, b = first.get(span, {}), later.get(span, {})
            for field in sorted((set(a) | set(b)) - {"s", "self_s"}):
                x, y = a.get(field, 0), b.get(field, 0)
                if x == y:
                    continue
                what = f"{span}.{field}: {x} != {y}"
                if (field in metrics.REPEATING_COUNTS
                        or span == "streams.child_rng"):
                    differ.append(what)
                else:
                    notes.append(what)
    check = ("must-repeat counts agree between traced passes", not differ,
             "; ".join(differ) or f"{len(per_pass)} traced passes")
    return check, notes


def run_traced(workload, inputs, seconds: float, spans_path: Path) -> dict:
    rec = tracing.Recorder()
    untraced, traced, texts, per_pass, raised = [], [], set(), [], []
    first = None
    t0 = time.perf_counter()
    pairs: list[float] = []
    while not raised and _another(pairs, t0, seconds, 2):
        elapsed, plain, error = _timed(workload, inputs, None)
        untraced.append(elapsed)
        rec.pass_id += 1
        mark = len(rec.spans)
        with rec.patch():
            elapsed, wrapped, traced_error = _timed(workload, inputs, rec)
        traced.append(elapsed)
        per_pass.append(tracing.aggregate(rec.spans[mark:]))
        pairs.append(untraced[-1] + traced[-1])
        raised += [e for e in (error, traced_error) if e is not None]
        for outputs in (plain, wrapped):
            if outputs is not None:
                first = first if first is not None else outputs
                texts.add(workloads.canonical(outputs))
    rec.write_jsonl(spans_path)

    checks, accuracy = _check(workload, first)
    checks.append(("traced and untraced outputs are byte-identical",
                   len(texts) <= 1, f"{len(texts)} distinct renderings"))
    checks.append(_raised_check(raised, len(pairs)))
    repeat, notes = _repeat_check(per_pass)
    layer = {}  # times: median over traced passes; counts: the first pass
    for name, (span, field) in metrics.LAYER_SOURCES.items():
        values = [p.get(span, {}).get(field, 0) for p in per_pass]
        layer[name] = (statistics.median(values) if field in ("s", "self_s")
                       else values[0])
    layer["wall_s"] = statistics.median(untraced)
    layer["trace.overhead_s"] = (statistics.median(traced)
                                 - statistics.median(untraced))
    return {"pass_s": untraced, "traced_pass_s": traced,
            "checks": checks + [repeat], "notes": notes, "layer": layer,
            "accuracy": accuracy, "outputs_sha256": _digest(first)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "passes", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", help="JSON Lines file for the spans "
                                        "(trace mode)")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    tmp = Path(".bench_out") / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        inputs = workload.build(args.seed, tmp)
        setup = IMPORT_S + time.perf_counter() - start
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup}), flush=True)
            return 0
        if args.mode == "passes":
            result = run_passes(workload, inputs, args.seconds, args.seed)
        else:
            result = run_traced(workload, inputs, args.seconds,
                                Path(args.spans))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result.update(
        argv=inputs["argv"], numpy=numpy.__version__,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
