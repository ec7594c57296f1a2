"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import dataclasses
import csv
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ------------------------------------------------------------ self time

def _span(sid, start, end, parent=None, name="x", attrs=None):
    return Span(sid, name, start, end, parent, 1, attrs)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, 0.0, 10.0, name="root"),
        _span(2, 1.0, 4.0, parent=1, name="a", attrs={"rows": 3}),
        _span(3, 3.0, 6.0, parent=1, name="b"),   # overlaps a (other thread)
        _span(4, 2.0, 3.0, parent=2, name="c"),
        _span(5, 8.0, 12.0, parent=1, name="a", attrs={"rows": 4}),
    ]
    own = tracing.self_times(spans)
    # root: 10 - |[1,6] u [8,10]| = 10 - 7
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    agg = tracing.aggregate(spans)
    assert agg["a"] == {"calls": 2, "s": pytest.approx(7.0),
                        "self_s": pytest.approx(6.0), "rows": 7}
    assert agg["root"]["self_s"] == pytest.approx(3.0)


def test_covered_length_edge_cases():
    assert tracing.covered_length([], 0.0, 1.0) == 0.0
    assert tracing.covered_length([(2.0, 3.0)], 0.0, 1.0) == 0.0
    assert tracing.covered_length([(0.0, 1.0), (0.5, 0.7)], 0.0, 1.0) == 1.0
    assert tracing.covered_length([(0.0, 0.2), (0.2, 0.4)], 0.0, 1.0) == \
        pytest.approx(0.4)


# -------------------------------------------------------------- patching

def _aliases(fns):
    """(module name, attribute) of every obsvalue attribute that is one of
    ``fns``."""
    ids = {id(f) for f in fns}
    return sorted((name, key) for name, mod in sys.modules.items()
                  if name == "obsvalue" or name.startswith("obsvalue.")
                  for key, value in vars(mod).items() if id(value) in ids)


def _originals():
    import importlib
    return [getattr(importlib.import_module(f"obsvalue.{m}"), a)
            for m, a in tracing.TRACED]


def test_patch_wraps_every_alias_and_restores():
    import obsvalue
    from obsvalue import lower, pbin, upper
    originals = _originals()
    before = _aliases(originals)
    binom = pbin.binom_pmf
    assert ("obsvalue.lower", "binom_pmf") in before
    assert ("obsvalue.upper", "binom_pmf") in before
    rec = tracing.Recorder()
    with rec.patch() as patched:
        assert _aliases(originals) == []
        assert len(patched) == len(before)
        wrapped = pbin.binom_pmf
        assert wrapped is not binom
        assert lower.binom_pmf is wrapped and upper.binom_pmf is wrapped
        assert obsvalue.binom_pmf is wrapped
    assert _aliases(originals) == before
    assert pbin.binom_pmf is binom and lower.binom_pmf is binom


def test_patch_restores_after_an_error():
    originals = _originals()
    before = _aliases(originals)
    with pytest.raises(RuntimeError):
        with tracing.Recorder().patch():
            raise RuntimeError("boom")
    assert _aliases(originals) == before


def test_spans_record_parents_and_counts():
    from obsvalue import lower
    rec = tracing.Recorder()
    with rec.patch():
        res = lower.cube_lower(2, 2.0)
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    (cube,) = by_name["lower.cube_lower"]
    assert cube.parent is None
    assert cube.attrs == {"mc_samples": 0, "exact_calls": 1}
    assert all(s.parent == cube.id
               for s in by_name["pbin.multinomial_enumerate"])
    assert sum(s.attrs["rows"] for s in by_name["pbin.multinomial_enumerate"]
               ) == 10 + 20  # compositions of 2 and 3 into 4 parts
    assert res.method == "exact"


def test_thread_spans_take_the_blocked_callers_span_as_parent():
    from obsvalue import densities, upper
    f = densities.hypercube_density(densities.HypercubeSpec(2.0, 1, [0]))
    rec = tracing.Recorder()
    with rec.patch():
        upper.mc_mad(f, 5, 20_000, seed=3, workers=2)
    (mad,) = [s for s in rec.spans if s.name == "upper.mc_mad"]
    samples = [s for s in rec.spans if s.name == "densities.sample_density"]
    assert mad.attrs == {"draws": 20_000}
    assert samples and all(s.parent == mad.id for s in samples)
    assert sum(s.attrs["draws"] for s in samples) == 20_000 * 5


def test_repeat_check_fails_on_budget_counts_and_notes_others():
    a = {"lower.cube_lower": {"calls": 1, "s": 1.0, "mc_samples": 10},
         "pbin.binom_pmf": {"calls": 5, "s": 0.1},
         "streams.child_rng": {"calls": 2, "s": 0.0}}
    same = copy.deepcopy(a)
    same["pbin.binom_pmf"]["s"] = 0.2
    check, notes = worker._repeat_check([a, same])
    assert check[1] and notes == []
    b = copy.deepcopy(a)
    b["pbin.binom_pmf"]["calls"] = 6
    check, notes = worker._repeat_check([a, b])
    assert check[1] and len(notes) == 1
    for span, field in (("lower.cube_lower", "mc_samples"),
                        ("streams.child_rng", "calls")):
        c = copy.deepcopy(a)
        c[span][field] += 1
        check, _ = worker._repeat_check([a, c])
        assert not check[1] and span in check[2]


# --------------------------------------------------------------- metrics

def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_units_and_limits():
    assert len(metrics.END_TO_END) <= 16
    assert len(metrics.PER_LAYER) <= 128
    names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better in metrics.END_TO_END + metrics.PER_LAYER:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
        assert better in ("lower", "higher")


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in spec["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]
            ] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
            ] == list(metrics.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= spec["run_seconds"] <= 60
    assert set(workloads.WORKLOADS) == set(metrics.WORKLOADS)


def test_verify_properties_match_the_package():
    from obsvalue import verify
    assert [name for name, _ in verify.CHECKS] == list(
        metrics.VERIFY_PROPERTIES)
    ref = workloads.load_reference("verify-quick")["outputs"]
    assert list(workloads._properties(ref)) == list(metrics.VERIFY_PROPERTIES)


# ---------------------------------------------------------------- checks

def _reference(name):
    return workloads.load_reference(name)["outputs"]


def _failed(name, outputs):
    checks = workloads.WORKLOADS[name].check(outputs, _reference(name))
    return [n for n, ok, _ in checks.results if not ok]


def _edit_csv(text, row, col, fn):
    rows = list(csv.reader(io.StringIO(text)))
    j = rows[0].index(col)
    value = fn(rows[row + 1][j])
    rows[row + 1][j] = value if isinstance(value, str) else repr(value)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _perturb(outputs, key, row, col, fn):
    out = copy.deepcopy(outputs)
    out[key] = _edit_csv(out[key], row, col, fn)
    return out


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_reference_passes_its_own_checks(name):
    assert _failed(name, _reference(name)) == []


def _summary(outputs, key, value):
    out = copy.deepcopy(outputs)
    summary = json.loads(out["summary_json"])
    summary[key] = value
    out["summary_json"] = json.dumps(summary)
    return out


LOWER_PERTURBATIONS = {
    "lower + lower_ci >= lower_closed": lambda o: _perturb(
        o, "sweep_csv", 2, "lower", lambda v: 1e-4),
    "upper_exact <= upper_closed": lambda o: _perturb(
        o, "sweep_csv", 1, "upper_exact", lambda v: 5.0),
    "floor_half <= upper_exact": lambda o: _perturb(
        o, "sweep_csv", 3, "floor_half", lambda v: 1.0),
    "exponent_upper within 0.1": lambda o: _summary(
        o, "exponent_upper", -0.65),
    "exponent_lower within 0.1": lambda o: _summary(
        o, "exponent_lower", -0.35),
    "mass*sqrt(m) >= 1/6": lambda o: _perturb(
        o, "mixedpbin_csv", 0, "mass_sqrt_m", lambda v: 0.1),
    "n=4: lower matches reference": lambda o: _perturb(
        o, "sweep_csv", 0, "lower", lambda v: float(v) + 1e-9),
    "n=64: lower matches reference": lambda o: _perturb(
        o, "sweep_csv", 4, "lower", lambda v: float(v) * 1.05),
    "n=16: upper_exact matches reference": lambda o: _perturb(
        o, "sweep_csv", 2, "upper_exact", lambda v: float(v) + 1e-10),
    "mixedpbin mass matches reference": lambda o: _perturb(
        o, "mixedpbin_csv", 0, "mass", lambda v: float(v) + 0.01),
    "lower_ci_rel within the reference budget": lambda o: _perturb(
        o, "sweep_csv", 1, "lower_ci", lambda v: float(v) * 1.5),
    "exact_frac not below reference": lambda o: _perturb(
        o, "sweep_csv", 0, "lower_method", lambda v: "mc"),
    "exit codes are 0": lambda o: {**o, "exit_codes": [0, 1]},
}


@pytest.mark.parametrize("check", sorted(LOWER_PERTURBATIONS))
def test_lower_mc_checks_flag_perturbed_outputs(check):
    bad = LOWER_PERTURBATIONS[check](_reference("lower-mc"))
    assert any(check in name for name in _failed("lower-mc", bad)), check


def _exact_edit(field, fn, kind="cube", index=0):
    def edit(o):
        out = copy.deepcopy(o)
        item = out[kind][index]
        item[field] = fn(item[field])
        return out
    return edit


EXACT_PERTURBATIONS = {
    "every per_l >= 0": _exact_edit(
        "per_l", lambda v: [-1e-9] + v[1:], index=4),
    "masses sum to 1": _exact_edit(
        "masses", lambda v: [v[0] + 1e-9] + v[1:], kind="mixedpbin"),
    "per_l matches reference": _exact_edit(
        "per_l", lambda v: [v[0] + 2e-12] + v[1:], index=20),
    "masses matches reference": _exact_edit(
        "masses", lambda v: [v[0] + 1e-11, v[1] - 1e-11] + v[2:],
        kind="mixedpbin", index=2),
    "exact_frac not below reference": _exact_edit("method", lambda v: "mc"),
    "cube cases match the reference": lambda o: {**o, "cube": o["cube"][:-1]},
}


@pytest.mark.parametrize("check", sorted(EXACT_PERTURBATIONS))
def test_exact_enum_checks_flag_perturbed_outputs(check):
    bad = EXACT_PERTURBATIONS[check](_reference("exact-enum"))
    assert any(check in name for name in _failed("exact-enum", bad)), check


def _cells(key, fn):
    def edit(o):
        out = copy.deepcopy(o)
        out["cells64"][key] = fn(out["cells64"][key])
        return out
    return edit


UPPER_PERTURBATIONS = {
    "n=32: |mc_estimate - exact_mad| within 4 sigma": lambda o: _perturb(
        o, "mad_csv", 3, "mc_estimate", lambda v: float(v) * 1.05),
    "n=8: certificate bound dominates": lambda o: _perturb(
        o, "mad_csv", 1, "certificate_bound", lambda v: 0.01),
    "64 cells: |mc_estimate - exact_mad| within 4 sigma": _cells(
        "mc_estimate", lambda v: v * 1.05),
    "64 cells: certificate bound dominates": _cells(
        "exact_mad", lambda v: 1.0),
    "n=4: exact_mad_half matches reference": lambda o: _perturb(
        o, "mad_csv", 0, "exact_mad_half", lambda v: float(v) + 1e-10),
    "n=128: mc_estimate matches reference": lambda o: _perturb(
        o, "mad_csv", 5, "mc_estimate", lambda v: float(v) * 1.02),
    "upper_ci_rel within the reference budget": lambda o: _perturb(
        o, "mad_csv", 2, "mc_ci", lambda v: float(v) * 1.5),
    "exit code is 0": lambda o: {**o, "exit_code": 1},
}


@pytest.mark.parametrize("check", sorted(UPPER_PERTURBATIONS))
def test_upper_mc_checks_flag_perturbed_outputs(check):
    bad = UPPER_PERTURBATIONS[check](_reference("upper-mc"))
    assert any(check in name for name in _failed("upper-mc", bad)), check


def test_verify_quick_checks_flag_failures_and_missing_properties():
    ref = _reference("verify-quick")
    bad = copy.deepcopy(ref)
    bad["failures"] = 1
    bad["lines"][3] = bad["lines"][3].replace("PASS", "FAIL", 1)
    failed = _failed("verify-quick", bad)
    assert "verify reports 0 failures" in failed
    assert any(n.endswith("passes") for n in failed)
    dropped = copy.deepcopy(ref)
    del dropped["lines"][5]
    assert _failed("verify-quick", dropped) == [
        f"property {metrics.VERIFY_PROPERTIES[5]} passes"]


def test_agree_uses_ci_for_mc_and_exact_tol_otherwise():
    c = workloads.Checks()
    c.agree("mc", 1.0, 0.1, 1.15, 0.1)
    c.agree("mc-far", 1.0, 0.1, 1.25, 0.1)
    c.agree("exact", np.array([1.0, 2.0]), 0.0, np.array([1.0, 2.0 + 5e-13]),
            0.0)
    c.agree("exact-far", 1.0, 0.0, 1.0 + 1e-11, 0.0)
    c.agree("shape", [1.0], 0.0, [1.0, 2.0], 0.0)
    assert [ok for _, ok, _ in c.results] == [True, False, True, False, False]


# ---------------------------------------------------------------- runner

def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-enum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_calibration_scales_to_reference_seconds():
    # on a machine twice as fast as the reference, 2 s read as 4 s
    assert calibration.scaled(2.0, calibration.REF_S / 2) == pytest.approx(4)


def _raising(workload_name):
    def boom(inputs, rec):
        raise FloatingPointError("boom")
    return dataclasses.replace(workloads.WORKLOADS[workload_name], run=boom)


def _failed_checks(result):
    return [(name, detail) for name, ok, detail in result["checks"] if not ok]


def test_a_pass_that_raises_is_a_failed_check(monkeypatch, tmp_path):
    monkeypatch.setattr(worker, "_probe", lambda workload, seed: 0.25)
    kernel_s = worker.calibration.REF_S / 2  # a machine twice as fast
    monkeypatch.setattr(worker.calibration, "measure", lambda: kernel_s)
    res = worker.run_passes(_raising("exact-enum"), {}, 10.0, 1)
    assert len(res["pass_s"]) == 1
    assert res["pass_ref_s"][0] == pytest.approx(2 * res["pass_s"][0])
    assert res["setup_s"] == [0.25] * worker.SETUP_PROBES
    [(name, detail)] = _failed_checks(res)
    assert name == "no pass raised" and "boom" in detail

    res = worker.run_traced(_raising("exact-enum"), {}, 10.0,
                            tmp_path / "spans.jsonl")
    assert len(res["pass_s"]) == len(res["traced_pass_s"]) == 1
    [(name, detail)] = _failed_checks(res)
    assert name == "no pass raised" and detail.count("boom") == 2


def test_a_crashed_worker_fails_its_workload_only(monkeypatch, tmp_path,
                                                  capsys):
    import run

    def spawn(args, timeout):
        if "upper-mc" in args:
            raise run.BenchError("worker exited with 1")
        return {"checks": [["ok", True, ""]], "pass_s": [1.0],
                "pass_ref_s": [1.1], "setup_s": [0.2],
                "peak_rss_mb": 50.0, "argv": [],
                "numpy": np.__version__, "accuracy": {},
                "outputs_sha256": ""}

    monkeypatch.setattr(run, "_spawn", spawn)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", "all", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (out["correct"], out["attempted"], out["failed"]) == (False, 4, 1)
    assert {m.partition(".")[0] for m in out["metrics"]} == {
        "lower-mc", "exact-enum", "verify-quick"}
