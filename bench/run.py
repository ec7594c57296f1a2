"""Benchmark of the obsvalue certificate pipeline.

    python3 bench/run.py --workload lower-mc --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root; the package is imported from ``src/``.
Workloads and their reasons are described in ``bench/workloads.py``; the
metric names are in ``bench/metrics.py`` and ``BENCHMARK.json``.

Untraced (``--trace 0``), one run reports per workload:

- ``wall_ref_s``: median wall time of one pass, after imports, over the
  passes a fresh worker process makes in ``--seconds`` (at least one), each
  pass in reference seconds: scaled by the time a fixed calibration kernel
  took just before it (``calibration.py``), so that the host's drifting
  speed cancels;
- ``setup_s``: median over several fresh interpreters, started between the
  passes, of the time to import ``obsvalue.cli`` and build the workload's
  inputs, timed inside each interpreter (in plain seconds);
- ``peak_rss_mb``: peak resident memory of the worker that ran the passes.

The unscaled median pass time is printed too (``raw wall_s``); the result
file keeps every pass time, unscaled and scaled.

It also prints, not as metrics, ``error_rate`` (failed checks / checks
attempted, carried by ``failed`` and ``attempted`` in the result) and the
accuracy figures ``lower_ci_rel``, ``upper_ci_rel`` and ``exact_frac``, which
the checks hold to the stored reference.

Traced (``--trace 1``), the worker alternates untraced and traced passes and
reports the per-layer metrics, the unscaled median untraced pass time
(``wall_s``), the tracing overhead, and whether traced and untraced outputs
are byte-identical.  Spans are written as JSON Lines to
``.bench_out/``, next to a result file with the provenance record.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A worker that crashes or runs out of time is a
failed check of its workload (which then has no metrics); the other
workloads still run.  Work runs in one worker process at a time, with
at most two threads (``upper-mc``'s ``--workers 2``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = Path(".bench_out")
RUN_BUDGET_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """A worker failed to start, crashed, or ran out of time."""


def _spawn(args: list[str], timeout: float) -> dict:
    """Run one worker and return its JSON result.  The worker is killed if
    it outlives ``timeout``."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran out of time")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with "
                         f"{done.returncode}")
    return json.loads(lines[-1])


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          capture_output=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "obsvalue").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _provenance(name: str, seed: int, seconds: float, trace: bool,
                argv: list[str] | None, numpy: str | None) -> dict:
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "argv": argv,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy,
            "git_commit": _git_commit(), "source_sha256": _source_digest()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    mode = ["--mode", "trace", "--spans", str(OUT_DIR / f"spans-{tag}.jsonl")
            ] if trace else ["--mode", "passes"]
    try:
        res = _spawn(["--workload", name, "--seed", str(seed), *mode,
                      "--seconds", str(seconds)], RUN_BUDGET_S)
    except BenchError as exc:  # one failed check, no metrics
        return {"provenance": _provenance(name, seed, seconds, trace, None,
                                          None),
                "metrics": {}, "attempted": 1, "failed": 1,
                "checks": [("worker gave a result", False, str(exc))],
                "notes": [], "accuracy": {}, "pass_s": []}
    failed = sum(not ok for _, ok, _ in res["checks"])
    if trace:
        metrics = {m: {"value": res["layer"][m], "unit": unit}
                   for m, unit, _ in PER_LAYER}
    else:
        values = {"wall_ref_s": statistics.median(res["pass_ref_s"]),
                  "setup_s": statistics.median(res["setup_s"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {m: {"value": values[m], "unit": unit}
                   for m, unit, _ in END_TO_END}
    return {"provenance": _provenance(name, seed, seconds, trace,
                                      res["argv"], res["numpy"]),
            "metrics": metrics,
            "attempted": len(res["checks"]), "failed": failed,
            "checks": res["checks"], "notes": res.get("notes", []),
            "accuracy": res["accuracy"],
            "outputs_sha256": res["outputs_sha256"], "pass_s": res["pass_s"],
            "pass_ref_s": res.get("pass_ref_s"),
            "traced_pass_s": res.get("traced_pass_s"),
            "setup_samples": res.get("setup_s"),
            "peak_rss_mb": res["peak_rss_mb"]}


def _report(result: dict) -> None:
    prov = result["provenance"]
    print(f"== {prov['workload']} (seed {prov['seed']}, "
          f"{'traced' if prov['trace'] else 'untraced'}): "
          f"{len(result['pass_s'])} untraced passes")
    for name, ok, detail in result["checks"]:
        if not ok:
            print(f"  FAIL {name}: {detail}")
    for note in result["notes"]:
        print(f"  note: count differs between traced passes: {note}")
    rows = [(m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
    rows.append(("error_rate", result["failed"] / result["attempted"],
                 f"{result['failed']}/{result['attempted']} checks"))
    rows += [(m, v, "ratio") for m, v in result["accuracy"].items()]
    if not prov["trace"] and result["pass_s"]:
        rows.append(("raw wall_s", statistics.median(result["pass_s"]),
                     "s, unscaled"))
    for m, value, unit in rows:
        print(f"  {m:<44} {value:<24.6g} {unit}")
    print("  provenance " + json.dumps(prov))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "obsvalue" / "cli.py").is_file():
        print(f"error: no obsvalue sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    (ROOT / OUT_DIR).mkdir(exist_ok=True)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _report(result)
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        (ROOT / OUT_DIR / f"result-{tag}.json").write_text(
            json.dumps(result, indent=1) + "\n")
        results[name] = result

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{m}": v for w, r in results.items()
                   for m, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
