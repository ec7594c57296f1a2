"""The four benchmark workloads: inputs, one timed pass, output checks.

Every workload turns the benchmark seed into the program's inputs
(``build``), runs one pass through obsvalue's public functions (``run``),
and returns JSON-ready outputs that ``check`` tests against the stored
reference.  Module functions are always looked up through their module at
call time, so the traced run sees its wrappers.

- ``lower-mc``: the north-star sweep 4:256:x2 plus ``lower mixedpbin`` at
  n = m = 16, both at a Monte Carlo budget of 20 000; both Monte Carlo
  consumers of the grouped PBin convolution do nearly all of the work.
  (At the CLI's default budget of 100 000 a pass takes about 18 s, and
  4:1024:x2 about 60 s: too long to repeat within one run.)
- ``exact-enum``: ``cube_lower`` on its exact path (n <= 7) and exact
  ``mixedpbin_mass``: composition enumeration and the batched PBin DP, no
  Monte Carlo.  It is the bypass workload for Monte Carlo loop changes.
  Its inputs do not depend on the seed.
- ``upper-mc``: ``upper mad`` with two worker threads plus ``mc_mad`` on a
  64-cell density; exercises ``upper``, ``densities`` and the thread pool
  and never calls ``lower``.
- ``verify-quick``: ``run_verify(quick=True)``; thousands of tiny calls, so
  fixed per-call cost dominates.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from obsvalue import cli, densities, lower, upper, verify

# Tolerances of obsvalue.constants when the reference was recorded; kept
# here so that the code under test cannot loosen its own gate.
EXACT_TOL = 1e-12
SUM_TOL = 1e-10

# A Monte Carlo value checked against its exact value uses a 4-sigma band,
# i.e. 4/3 of the 3-sigma interval the program reports.  At 3 sigma a
# correct row fails with probability 0.27%, so one of the eight upper-mc
# rows would fail on about 2% of seeds; at 4 sigma it is 0.05%.  The same
# 4-sigma level is what ``obsvalue verify`` uses for its frequency tests.
EXACT_BAND = 4.0 / 3.0

# Accuracy guard: the relative CI width may not exceed the reference's by
# more than this factor.  CI width scales as 1/sqrt(budget), so cutting a
# Monte Carlo budget by about a fifth or more fails (1/sqrt(0.8) = 1.12).
CI_REL_SLACK = 1.1

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class Checks:
    """Named pass/fail results of one workload's output checks."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok, detail="") -> None:
        self.results.append((name, bool(ok), str(detail)))

    def agree(self, name: str, value, ci, ref, ref_ci) -> None:
        """MC values agree within ci + ref_ci; exact ones within
        EXACT_TOL."""
        value, ci, ref, ref_ci = (np.asarray(x, dtype=float)
                                  for x in (value, ci, ref, ref_ci))
        if value.shape != ref.shape:
            self.add(name, False, f"shape {value.shape} != {ref.shape}")
            return
        excess = np.abs(value - ref) - (ci + ref_ci + EXACT_TOL)
        worst = float(excess.max(initial=-np.inf))
        self.add(name, worst <= 0.0, f"max excess over tolerance {worst:.3g}")


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _f(row: dict, key: str) -> float:
    return float(row[key])


def _capture_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable    # (seed, tmp_dir) -> inputs dict with an "argv" list
    run: Callable      # (inputs, recorder or None) -> outputs
    check: Callable    # (outputs, reference outputs) -> Checks
    accuracy: Callable  # outputs -> {metric: value}


# --------------------------------------------------------------- lower-mc

# Monte Carlo budget of both lower-mc commands: about 4 s a pass, so that a
# run holds several passes to take the median of.
LOWER_MC = "20000"


def _lower_build(seed: int, tmp: Path) -> dict:
    out, summary = tmp / "bounds.csv", tmp / "rates.json"
    sweep = ["sweep", "--r", "2", "--n", "4:256:x2", "--mc", LOWER_MC,
             "--workers", "1", "--seed", str(seed), "--out", str(out),
             "--summary", str(summary)]
    mixed = ["lower", "mixedpbin", "--r", "2", "--n", "16", "--m", "16",
             "--mc", LOWER_MC, "--workers", "1", "--seed", str(seed)]
    return {"argv": [sweep, mixed], "files": (out, summary)}


def _lower_run(inputs: dict, rec) -> dict:
    sweep, mixed = inputs["argv"]
    files = inputs["files"]
    for path in files:  # a failed pass must not leave the last pass's files
        path.unlink(missing_ok=True)
    codes = [cli.main(list(sweep))]
    code, mixed_csv = _capture_cli(mixed)
    codes.append(code)
    out, summary = (p.read_text() if p.exists() else "" for p in files)
    return {"exit_codes": codes, "sweep_csv": out, "summary_json": summary,
            "mixedpbin_csv": mixed_csv}


def _lower_accuracy(outputs: dict) -> dict:
    rows = _csv_rows(outputs["sweep_csv"])
    mixed = _csv_rows(outputs["mixedpbin_csv"])
    rel = [_f(r, "lower_ci") / _f(r, "lower") for r in rows]
    rel += [_f(r, "ci") / _f(r, "mass") for r in mixed]
    methods = [r["lower_method"] for r in rows] + [r["method"] for r in mixed]
    return {"lower_ci_rel": max(rel),
            "exact_frac": methods.count("exact") / len(methods)}


def _lower_check(outputs: dict, ref: dict) -> Checks:
    c = Checks()
    c.add("exit codes are 0", outputs["exit_codes"] == [0, 0],
          outputs["exit_codes"])
    rows = _csv_rows(outputs["sweep_csv"])
    for row in rows:
        n = row["n"]
        lo, ci = _f(row, "lower"), _f(row, "lower_ci")
        up = _f(row, "upper_exact")
        c.add(f"n={n}: lower + lower_ci >= lower_closed",
              lo + ci >= _f(row, "lower_closed"))
        c.add(f"n={n}: lower - lower_ci <= upper_exact <= upper_closed",
              lo - ci <= up <= _f(row, "upper_closed"))
        c.add(f"n={n}: floor_half <= upper_exact", _f(row, "floor_half") <= up)
    summary = json.loads(outputs["summary_json"])
    for side in ("upper", "lower"):
        exponent = summary[f"exponent_{side}"]
        c.add(f"exponent_{side} within 0.1 of -1/2",
              abs(exponent + 0.5) <= 0.1, exponent)
    (mixed,) = _csv_rows(outputs["mixedpbin_csv"])
    c.add("mixedpbin mass*sqrt(m) >= 1/6", _f(mixed, "mass_sqrt_m") >= 1 / 6,
          mixed["mass_sqrt_m"])

    ref_rows = _csv_rows(ref["sweep_csv"])
    c.add("sweep rows match the reference grid",
          [r["n"] for r in rows] == [r["n"] for r in ref_rows])
    for row, ref_row in zip(rows, ref_rows):
        n = row["n"]
        for col in ("lower_closed", "upper_exact", "upper_closed",
                    "floor_half"):
            c.agree(f"n={n}: {col} matches reference", _f(row, col), 0.0,
                    _f(ref_row, col), 0.0)
        c.agree(f"n={n}: lower matches reference", _f(row, "lower"),
                _f(row, "lower_ci"), _f(ref_row, "lower"),
                _f(ref_row, "lower_ci"))
    (ref_mixed,) = _csv_rows(ref["mixedpbin_csv"])
    c.agree("mixedpbin mass matches reference", _f(mixed, "mass"),
            _f(mixed, "ci"), _f(ref_mixed, "mass"), _f(ref_mixed, "ci"))
    acc, ref_acc = _lower_accuracy(outputs), _lower_accuracy(ref)
    c.add("lower_ci_rel within the reference budget",
          acc["lower_ci_rel"] <= CI_REL_SLACK * ref_acc["lower_ci_rel"],
          acc["lower_ci_rel"])
    c.add("exact_frac not below reference",
          acc["exact_frac"] >= ref_acc["exact_frac"], acc["exact_frac"])
    return c


# ------------------------------------------------------------- exact-enum

CUBE_CASES = tuple((n, r) for r in (1.5, 2.0, 4.0) for n in range(1, 8))
MIXED_CASES = ((9, 9), (8, 12), (10, 10))  # (m, n)
MIXED_R = 2.0


def _exact_build(seed: int, tmp: Path) -> dict:
    mixed = [(m, n, np.full(m, 1.0 / m),
              lower.bayes_risk_curve(MIXED_R, n).values)
             for m, n in MIXED_CASES]
    argv = [f"cube_lower(n, r) for (n, r) in {list(CUBE_CASES)}",
            f"mixedpbin_mass(n, m, uniform weights, "
            f"bayes_risk_curve({MIXED_R}, n)) for (m, n) in "
            f"{list(MIXED_CASES)}"]
    return {"argv": argv, "mixed": mixed}


def _exact_run(inputs: dict, rec) -> dict:
    cube = []
    for n, r in CUBE_CASES:
        res = lower.cube_lower(n, r)
        cube.append({"n": n, "r": r, "method": res.method,
                     "l_star": res.l_star, "delta": res.delta,
                     "per_l": res.per_l.tolist(), "ci": res.ci.tolist()})
    mixed = []
    for m, n, weights, table in inputs["mixed"]:
        res = lower.mixedpbin_mass(n, m, weights, table)
        mixed.append({"m": m, "n": n, "method": res.method,
                      "k_star": res.k_star, "masses": res.masses.tolist(),
                      "ci": res.ci.tolist()})
    return {"cube": cube, "mixedpbin": mixed}


def _exact_accuracy(outputs: dict) -> dict:
    methods = [x["method"] for x in outputs["cube"] + outputs["mixedpbin"]]
    return {"exact_frac": methods.count("exact") / len(methods)}


def _exact_check(outputs: dict, ref: dict) -> Checks:
    c = Checks()
    for x in outputs["cube"]:
        c.add(f"cube n={x['n']} r={x['r']}: every per_l >= 0",
              min(x["per_l"]) >= 0.0, min(x["per_l"]))
    for x in outputs["mixedpbin"]:
        total = sum(x["masses"])
        c.add(f"mixedpbin m={x['m']} n={x['n']}: masses sum to 1",
              abs(total - 1.0) <= SUM_TOL, total)
    for kind, key in (("cube", "per_l"), ("mixedpbin", "masses")):
        c.add(f"{kind} cases match the reference",
              len(outputs[kind]) == len(ref[kind]))
        for x, y in zip(outputs[kind], ref[kind]):
            label = ", ".join(f"{k}={x[k]}" for k in ("n", "r", "m") if k in x)
            c.agree(f"{kind} {label}: {key} matches reference", x[key],
                    x["ci"], y[key], y["ci"])
    c.add("exact_frac not below reference",
          _exact_accuracy(outputs)["exact_frac"]
          >= _exact_accuracy(ref)["exact_frac"])
    return c


# --------------------------------------------------------------- upper-mc

CELLS64_K = 257
CELLS64_DRAWS = 100_000


def _upper_build(seed: int, tmp: Path) -> dict:
    argv = ["upper", "mad", "--r", "2", "--n", "4:256:x2", "--mc", "100000",
            "--workers", "2", "--seed", str(seed)]
    spec = densities.HypercubeSpec(2.0, 64, [j % 2 for j in range(64)])
    return {"argv": [argv, f"mc_mad(64-cell alternating vertex density, "
                           f"k={CELLS64_K}, draws={CELLS64_DRAWS}, "
                           f"seed={seed}, workers=2)"],
            "density": densities.hypercube_density(spec), "seed": seed}


def _upper_run(inputs: dict, rec) -> dict:
    code, mad_csv = _capture_cli(inputs["argv"][0])
    f = inputs["density"]
    est, ci = upper.mc_mad(f, CELLS64_K, CELLS64_DRAWS, seed=inputs["seed"],
                           workers=2)
    exact = upper.exact_mad(upper.uniform_ratio(f).two_level, CELLS64_K)
    return {"exit_code": code, "mad_csv": mad_csv,
            "cells64": {"k": CELLS64_K, "mc_estimate": est, "mc_ci": ci,
                        "exact_mad": exact}}


def _upper_accuracy(outputs: dict) -> dict:
    rel = [_f(r, "mc_ci") / _f(r, "mc_estimate")
           for r in _csv_rows(outputs["mad_csv"])]
    cells = outputs["cells64"]
    rel.append(cells["mc_ci"] / cells["mc_estimate"])
    return {"upper_ci_rel": max(rel)}


def _upper_check(outputs: dict, ref: dict) -> Checks:
    c = Checks()
    c.add("exit code is 0", outputs["exit_code"] == 0, outputs["exit_code"])
    rows = _csv_rows(outputs["mad_csv"])
    for row in rows:
        n = row["n"]
        est, ci = _f(row, "mc_estimate"), _f(row, "mc_ci")
        exact = 2.0 * _f(row, "exact_mad_half")
        c.add(f"n={n}: |mc_estimate - exact_mad| within 4 sigma",
              abs(est - exact) <= EXACT_BAND * ci, f"{est!r} vs {exact!r}")
        c.add(f"n={n}: certificate bound dominates exact_mad/2",
              _f(row, "exact_mad_half") <= _f(row, "certificate_bound"))
    cells = outputs["cells64"]
    c.add("64 cells: |mc_estimate - exact_mad| within 4 sigma",
          abs(cells["mc_estimate"] - cells["exact_mad"])
          <= EXACT_BAND * cells["mc_ci"])
    c.add("64 cells: certificate bound dominates exact_mad/2",
          bool(rows) and cells["exact_mad"] / 2.0
          <= _f(rows[-1], "certificate_bound"))

    ref_rows = _csv_rows(ref["mad_csv"])
    c.add("rows match the reference grid",
          [r["n"] for r in rows] == [r["n"] for r in ref_rows])
    for row, ref_row in zip(rows, ref_rows):
        n = row["n"]
        for col in ("exact_mad_half", "certificate_bound", "floor_half"):
            c.agree(f"n={n}: {col} matches reference", _f(row, col), 0.0,
                    _f(ref_row, col), 0.0)
        c.agree(f"n={n}: mc_estimate matches reference",
                _f(row, "mc_estimate"), _f(row, "mc_ci"),
                _f(ref_row, "mc_estimate"), _f(ref_row, "mc_ci"))
    ref_cells = ref["cells64"]
    c.agree("64 cells: exact_mad matches reference", cells["exact_mad"], 0.0,
            ref_cells["exact_mad"], 0.0)
    c.agree("64 cells: mc_estimate matches reference", cells["mc_estimate"],
            cells["mc_ci"], ref_cells["mc_estimate"], ref_cells["mc_ci"])
    acc = _upper_accuracy(outputs)["upper_ci_rel"]
    c.add("upper_ci_rel within the reference budget",
          acc <= CI_REL_SLACK * _upper_accuracy(ref)["upper_ci_rel"], acc)
    return c


# ----------------------------------------------------------- verify-quick

def _verify_build(seed: int, tmp: Path) -> dict:
    return {"argv": [f"run_verify(quick=True, seed={seed})"], "seed": seed}


def _verify_run(inputs: dict, rec) -> dict:
    lines: list[str] = []
    stamps = [time.perf_counter()]

    def out(line: str) -> None:
        stamps.append(time.perf_counter())
        lines.append(line)

    failures = verify.run_verify(quick=True, seed=inputs["seed"], out=out)
    if rec is not None:  # one interval per property, between callbacks
        for i, (prop, _) in _verdicts(lines):
            rec.add(f"verify.{prop}", stamps[i], stamps[i + 1])
    return {"failures": failures, "lines": lines}


def _verdicts(lines: list[str]):
    """(line index, (property, PASS or FAIL)) for each verdict line."""
    for i, line in enumerate(lines):
        status, _, rest = line.partition(" ")
        if status in ("PASS", "FAIL"):
            yield i, (rest.partition(":")[0], status)


def _properties(outputs: dict) -> dict[str, str]:
    return dict(v for _, v in _verdicts(outputs["lines"]))


def _verify_check(outputs: dict, ref: dict) -> Checks:
    c = Checks()
    props = _properties(outputs)
    c.add("verify reports 0 failures", outputs["failures"] == 0,
          outputs["failures"])
    for name in _properties(ref):
        c.add(f"property {name} passes", props.get(name) == "PASS",
              props.get(name, "missing"))
    return c


WORKLOADS = {
    w.name: w for w in (
        Workload("lower-mc", _lower_build, _lower_run, _lower_check,
                 _lower_accuracy),
        Workload("exact-enum", _exact_build, _exact_run, _exact_check,
                 _exact_accuracy),
        Workload("upper-mc", _upper_build, _upper_run, _upper_check,
                 _upper_accuracy),
        Workload("verify-quick", _verify_build, _verify_run, _verify_check,
                 lambda outputs: {}),
    )
}


def canonical(outputs: dict) -> str:
    """Byte-exact rendering of a pass's outputs (floats round-trip)."""
    return json.dumps(outputs, sort_keys=True)


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())
