"""CLI tests: dispatch, formats, exit codes, and worker determinism."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obsvalue
from obsvalue.cli import _CELL_BYTES, _SLICE, _emit, main, parse_n_values
from obsvalue.lower import CubeLowerResult, cube_lower
from obsvalue.rates import (BoundReport, bound_sweep, format_number,
                            sweep_summary, to_record)


def flat_cube(n, r, _risks=None):
    """A stand-in for ``cube_lower`` at a constant cost per n."""
    delta = 0.5 / math.sqrt(n + 1)
    return CubeLowerResult(n, 2 * n, 1, delta, delta, delta / 12,
                           np.zeros(1), np.zeros(1), "gf")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture
def density(tmp_path):
    """Path of a four-cell step density at r = 2."""
    path = tmp_path / "density.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["experiment", "build", "--r", "2", "--bits", "0110",
                     "--out", str(path)]) == 0
    return path


class TestParseNValues:
    def test_forms(self):
        assert list(parse_n_values("7")) == [7]
        assert list(parse_n_values("1:4")) == [1, 2, 3, 4]
        assert list(parse_n_values("1:9:3")) == [1, 4, 7]
        assert list(parse_n_values("4:1024:x2")) == [4, 8, 16, 32, 64, 128,
                                                     256, 512, 1024]

    def test_a_range_builds_no_list(self, traced_peak):
        # the list of a million ints took 38 MiB
        _, peak = traced_peak(lambda: parse_n_values("1:1000000"))
        assert peak <= 64 << 10

    def test_rejects_garbage(self):
        with pytest.raises(SystemExit):
            parse_n_values("4:x")
        with pytest.raises(SystemExit):
            parse_n_values("4:16:x1")
        for text in ("5:1", "1:32:-1", "5:1:-2", "1:10:x2:5", "1:2:3:4"):
            with pytest.raises(SystemExit, match="bad n range"):
                parse_n_values(text)


# Small bounds keep every generated range short.
ints = st.integers(-1000, 1000)
pos = st.integers(1, 1000)


@st.composite
def valid_ranges(draw):
    """(text, a, b) for the forms a, a:b, a:b:s and a:b:xF."""
    form = draw(st.sampled_from(["a", "a:b", "a:b:s", "a:b:xF"]))
    a = draw(pos if form == "a:b:xF" else ints)
    if form == "a":
        return str(a), a, a
    b = a + draw(st.integers(0, 500))
    text = f"{a}:{b}"
    if form == "a:b:s":
        text += f":{draw(pos)}"
    elif form == "a:b:xF":
        text += f":x{draw(st.integers(2, 10))}"
    return text, a, b


word = st.text(st.characters(blacklist_characters=":"), min_size=1).filter(
    lambda t: not t.strip().lstrip("+-").replace("_", "").isdecimal())
bad_ranges = st.one_of(
    word,                                                     # not an int
    st.builds("{}:{}".format, ints, word),
    st.builds("{}:{}:{}".format, ints, ints, word),
    st.builds("{}:{}:x{}".format, ints, ints, word),
    st.builds(lambda a, d: f"{a}:{a - d}", ints, pos),        # empty
    st.builds(lambda a, d, s: f"{a}:{a + d}:{s}", ints, ints,
              st.integers(-5, 0)),                            # step < 1
    st.builds(lambda a, d, f: f"{a}:{a + d}:x{f}", pos, ints,
              st.integers(-5, 1)),                            # factor < 2
    st.builds(lambda a, d: f"{a}:{a + d}:x2", st.integers(-5, 0), pos),
    st.builds(lambda parts: ":".join(map(str, parts)),
              st.lists(ints, min_size=4, max_size=6)),        # > 3 parts
    st.sampled_from(["", ":", "::", "1:", ":5", "1::2", "1:5:", "1:5:x"]),
)


class TestParseNValueProperties:
    @settings(database=None, deadline=None)
    @given(valid_ranges())
    def test_valid_forms_give_increasing_values_in_range(self, case):
        text, a, b = case
        values = parse_n_values(text)
        assert values and values[0] == a and values[-1] <= b
        assert all(x < y for x, y in zip(values, values[1:]))

    @settings(database=None, deadline=None)
    @given(bad_ranges)
    def test_other_text_raises_system_exit(self, text):
        with pytest.raises(SystemExit, match="bad n range"):
            parse_n_values(text)

    @settings(database=None, deadline=None)
    @given(st.text(max_size=8))
    def test_any_text_gives_values_or_system_exit(self, text):
        try:
            values = parse_n_values(text)
        except SystemExit:
            return
        assert values and all(x < y for x, y in zip(values, values[1:]))

    @settings(database=None, deadline=None, max_examples=50)
    @given(bad_ranges)
    def test_bad_range_exits_one_without_traceback(self, text):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["lower", "risks", "--r", "2", f"--n={text}"])
        assert code == 1 and out.getvalue() == ""
        assert "bad n range" in err.getvalue()
        assert "Traceback" not in err.getvalue()


def csv_records(text: str) -> list[dict]:
    lines = text.splitlines()
    return [dict(zip(lines[0].split(","), line.split(",")))
            for line in lines[1:]]


class TestJsonMatchesCsv:
    @settings(database=None, deadline=None, max_examples=30)
    @given(st.floats(1.0, 1e6, exclude_min=True), st.integers(0, 40),
           st.integers(0, 40), st.sampled_from(["0", "100"]))
    def test_upper_mad_records(self, r, a, d, mc):
        argv = ["upper", "mad", "--r", repr(r), "--n", f"{a}:{a + d}",
                "--mc", mc]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        with contextlib.redirect_stdout(io.StringIO()) as js:
            assert main(argv + ["--format", "json"]) == 0
        records = json.loads(js.getvalue())
        assert js.getvalue() == json.dumps(records, indent=2) + "\n"
        rows = csv_records(out.getvalue())
        assert len(records) == len(rows) == d + 1
        for rec, row in zip(records, rows):
            assert list(rec) == list(row)
            for key, text in row.items():
                x = float(text)
                assert x == rec[key] or (np.isnan(x) and np.isnan(rec[key]))

    def test_sweep_records(self):
        # The keys in the CSV's column order, and each value the CSV's
        # text; the grid takes both methods.
        argv = ["sweep", "--r", "2", "--n", "4:16:x2"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        with contextlib.redirect_stdout(io.StringIO()) as js:
            assert main(argv + ["--format", "json"]) == 0
        records = json.loads(js.getvalue())["reports"]
        rows = csv_records(out.getvalue())
        assert len(records) == len(rows) == 3
        assert [row["lower_method"] for row in rows] == ["exact", "gf", "gf"]
        for rec, row in zip(records, rows):
            assert list(rec) == list(row)
            assert row == {key: v if isinstance(v, str) else format_number(v)
                           for key, v in rec.items()}

    @pytest.mark.parametrize("argv", [
        ["lower", "risks", "--r", "2", "--n", "3"],
        ["lower", "cube", "--r", "2", "--n", "1:9:4"],  # a string column
        ["lower", "mixedpbin", "--r", "2", "--n", "4", "--m", "3"],  # 1 row
        ["upper", "bound", "--r", "2", "--n", "1:9:4"],
        ["upper", "floor", "--r", "3", "--n", "1:16:x2"],
        ["upper", "mad", "--r", "2", "--n", "0:3"],  # NaN columns
        ["upper", "mad", "--r", "2", "--n", "5", "--mc", "100"],
    ])
    def test_records_are_the_whole_list_encoding(self, argv):
        # The text json.dumps(records, indent=2) gave, record by record.
        with contextlib.redirect_stdout(io.StringIO()) as js:
            assert main(argv + ["--format", "json"]) == 0
        text = js.getvalue()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


class TestPbinCommand:
    def test_pmf(self, capsys):
        code, out = run_cli(capsys, "pbin", "pmf", "0.1", "0.2", "0.3")
        assert code == 0
        values = [float(v) for v in out.split()]
        assert np.abs(np.array(values) - [0.504, 0.398, 0.092, 0.006]).max() < 1e-12

    def test_survival(self, capsys):
        code, out = run_cli(capsys, "pbin", "survival", "0.25", "0.5", "--l", "1")
        assert code == 0 and abs(float(out) - 0.625) < 1e-12

    def test_shift(self, capsys):
        code, out = run_cli(capsys, "pbin", "shift", "0.5",
                            "--p", "0.8", "--p2", "0.3", "--l", "1")
        lhs, rhs, gap = (float(v) for v in out.split())
        # --p and --p2 are appended: 0.9 - 0.65, not 0.8 - 0.3 (replaced)
        assert code == 0 and lhs == rhs == 0.25 and gap == 0.0

    def test_invalid_probability_exits_one(self, capsys):
        code, _ = run_cli(capsys, "pbin", "pmf", "1.5")
        assert code == 1


class TestExperimentCommand:
    def test_build_sample_tv(self, capsys, tmp_path):
        d1 = tmp_path / "d1.json"
        d2 = tmp_path / "d2.json"
        code, _ = run_cli(capsys, "experiment", "build", "--r", "2",
                          "--bits", "01", "--out", str(d1))
        assert code == 0
        data = json.loads(d1.read_text())
        assert data["values"] == [0.5, 1.5, 1.5, 0.5]

        code, _ = run_cli(capsys, "experiment", "build", "--r", "2",
                          "--bits", "00", "--out", str(d2))
        assert code == 0

        code, out = run_cli(capsys, "experiment", "sample", "--density",
                            str(d1), "--n", "25", "--seed", "3")
        assert code == 0
        samples = [float(v) for v in out.split()]
        assert len(samples) == 25 and all(0.0 <= v <= 1.0 for v in samples)

        code, out = run_cli(capsys, "experiment", "tv", "--density", str(d1),
                            "--density2", str(d2))
        assert code == 0 and abs(float(out) - 0.25) < 1e-12

    def test_build_from_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"r": 4.0, "m": 1, "bits": [1]}')
        code, out = run_cli(capsys, "experiment", "build",
                            "--spec-file", str(spec))
        assert code == 0
        assert json.loads(out)["values"] == [1.75, 0.25]

    @pytest.mark.parametrize("argv, err", [
        ("experiment sample --n 3", "error: sample needs --density"),
        ("experiment tv --density {density}",
         "error: tv needs --density and --density2"),
        ("experiment tv", "error: tv needs --density and --density2"),
    ], ids=["sample", "tv-without-density2", "tv"])
    def test_missing_density_exits_one_in_one_line(self, capsys, density,
                                                   argv, err):
        assert main(argv.format(density=density).split()) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [err]

    def test_missing_file_exits_three(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "experiment", "sample", "--density",
                          str(tmp_path / "nope.json"))
        assert code == 3

    @pytest.mark.parametrize("action", ["sample --n 3", "tv"])
    def test_non_finite_breakpoint_exits_one(self, capsys, tmp_path,
                                             density, action):
        bad = tmp_path / "bad.json"
        bad.write_text('{"breakpoints": [0, NaN, 1], "values": [1, 1]}')
        argv = ["experiment", *action.split(), "--density", str(bad),
                "--density2", str(density)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "strictly increasing" in captured.err

    @pytest.mark.parametrize("flag, text, field", [
        ("--density", '{"breakpoints": [0, 1]}', "values"),
        ("--density", "[0, 1]", "breakpoints"),
        ("--density", '{"breakpoints": "01", "values": [1]}', "breakpoints"),
        ("--density", '{"breakpoints": [0, "a", 1], "values": [1, 1]}',
         "breakpoints"),
        ("--density", '{"breakpoints": [0, 1], "values": null}', "values"),
        ("--density", '{"breakpoints": [0, 1], "values": [{}]}', "values"),
        ("--density", "{not json", None),
        ("--spec-file", '{"r": 2, "m": 2}', "bits"),
        ("--spec-file", '{"r": "2", "m": 1, "bits": [0]}', "r"),
        ("--spec-file", '{"r": 2, "m": [1], "bits": [0]}', "m"),
        ("--spec-file", '{"r": 2, "m": 1, "bits": 0}', "bits"),
        ("--spec-file", '{"r": 2, "m": 1, "bits": [true]}', "bits"),
        ("--spec-file", '"r"', "r"),
    ])
    def test_malformed_json_exits_one_in_one_line(self, capsys, tmp_path,
                                                  flag, text, field):
        path = tmp_path / "in.json"
        path.write_text(text)
        action = (["tv", "--density2", str(path)] if flag == "--density"
                  else ["build"])
        assert main(["experiment", *action, flag, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
        assert field is None or f"'{field}'" in captured.err


class TestUpperLowerCommands:
    def test_upper_mad_csv(self, capsys):
        code, out = run_cli(capsys, "upper", "mad", "--r", "2", "--n", "1:2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("r,n,exact_mad_half,certificate_bound")
        row = lines[1].split(",")
        assert abs(float(row[2]) - 0.1875) < 1e-12

    def test_upper_mad_at_huge_n_holds_one_band(self, capsys, traced_peak):
        # the padded pmf asked for 4.8 GB here
        n = 300_000_000
        code, peak = traced_peak(
            lambda: main(["upper", "mad", "--r", "2", "--n", str(n)]))
        assert code == 0 and peak <= 16 << 20
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        # de Moivre's term against its normal limit (a - b)/2 *
        # sqrt(2 q (1-q) / (pi k)), a = 2, b = 2/3, q = 1/4
        limit = math.sqrt(3.0 / (8.0 * math.pi)) * 2.0 / 3.0
        assert abs(float(row[2]) * math.sqrt(n + 1) / limit - 1.0) < 1e-6

    def test_upper_chi2(self, capsys):
        code, out = run_cli(capsys, "upper", "chi2", "--r", "2")
        C, s, radius = (float(v) for v in out.split())
        assert code == 0 and (C, s) == (2.0, 0.5)
        assert abs(radius - 3.386294361119891) < 1e-12

    def test_lower_risks_json(self, capsys):
        code, out = run_cli(capsys, "lower", "risks", "--r", "2", "--n", "3",
                            "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [row["risk"] for row in rows] == [0.5, 0.25, 0.25, 0.15625]

    def test_lower_cube(self, capsys):
        code, out = run_cli(capsys, "lower", "cube", "--r", "2", "--n", "1")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert abs(float(row[4]) - 0.09375) < 1e-12
        assert row[-1] == "exact"

    def test_lower_mixedpbin(self, capsys):
        code, out = run_cli(capsys, "lower", "mixedpbin", "--r", "2",
                            "--n", "1", "--m", "2")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert abs(float(row[4]) - 0.5) < 1e-12

    def test_lower_mixedpbin_prints_one_row_per_n(self, capsys):
        code, out = run_cli(capsys, "lower", "mixedpbin", "--r", "2",
                            "--n", "1:4", "--m", "4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        for n, line in enumerate(lines[1:], 1):
            # as the command prints it for that n alone, from its own curve
            code, alone = run_cli(capsys, "lower", "mixedpbin", "--r", "2",
                                  "--n", str(n), "--m", "4")
            assert code == 0 and alone.splitlines() == [lines[0], line]

    def test_lower_mixedpbin_many_cells_takes_the_gf(self, capsys):
        # 10^5 compositions of 10^5 + 1 entries each: beyond the guard.
        m = 100_000
        code, out = run_cli(capsys, "lower", "mixedpbin", "--r", "2",
                            "--n", "1", "--m", str(m))
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[-1] == "gf"
        # The one observation lands in some cell, whose risk drops to
        # r(1) = 1/4; the other m - 1 cells keep risk 1/2, so the mass at k
        # is (3 C(m-1, k) + C(m-1, k-1)) / (4 2^(m-1)).  C(m-1, m/2 - 1) =
        # C(m-1, m/2) are the largest, so k = m/2 is the best outcome.
        mass = math.comb(m - 1, m // 2) / 2 ** (m - 1)
        assert row[3] == str(m // 2)
        assert abs(float(row[4]) - mass) <= 1e-12 * mass


class TestSweepCommand:
    def test_deterministic_across_workers(self, capsys, tmp_path):
        paths = [tmp_path / f"sweep{w}.csv" for w in (1, 3)]
        for path, workers in zip(paths, ("1", "3")):
            code, _ = run_cli(capsys, "sweep", "--r", "2", "--n", "2:8:x2",
                              "--mc", "6000", "--seed", "42",
                              "--workers", workers, "--out", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_format_contains_summary(self, capsys):
        code, out = run_cli(capsys, "sweep", "--r", "2", "--n", "1:4:x2",
                            "--mc", "2000", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert {"reports", "summary"} <= payload.keys()
        assert payload["summary"]["r"] == 2.0

    def test_summary_sidecar(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        summary_path = tmp_path / "summary.json"
        code, _ = run_cli(capsys, "sweep", "--r", "2", "--n", "1:4:x2",
                          "--mc", "2000", "--out", str(csv_path),
                          "--summary", str(summary_path))
        assert code == 0
        assert "exponent_upper" in json.loads(summary_path.read_text())
        summary_path.unlink()
        code, out = run_cli(capsys, "sweep", "--r", "2", "--n", "1:4:x2",
                            "--format", "json",
                            "--summary", str(summary_path))
        assert code == 0
        assert (json.loads(summary_path.read_text())
                == json.loads(out)["summary"])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_summary_in_a_missing_directory_exits_three(self, capsys,
                                                        tmp_path, fmt):
        code = main(["sweep", "--r", "2", "--n", "1:4:x2", "--format", fmt,
                     "--summary", str(tmp_path / "no" / "summary.json")])
        captured = capsys.readouterr()
        assert code == 3 and "i/o error" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("r, grid", [("2", "4:1024:x2"), ("1.5", "1:39"),
                                         ("4", "3:9:2")])
    def test_json_is_the_whole_payload_encoding(self, capsys, r, grid):
        code, out = run_cli(capsys, "sweep", "--r", r, "--n", grid,
                            "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        # The report as json.dumps rendered it whole, the records in
        # BoundReport's field order.
        reports = bound_sweep(float(r), parse_n_values(grid))
        payload = {"reports": [to_record(vars(rep), vars(rep).values())
                               for rep in reports],
                   "summary": sweep_summary(reports)}
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_csv_sweep_without_summary_needs_no_rate_fit(self, capsys):
        # rate_fit needs 3 points; two reports still make a CSV table
        code, out = run_cli(capsys, "sweep", "--r", "2", "--n", "4:5")
        assert code == 0 and len(out.splitlines()) == 3


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert main(["sweep", "--r", "2", "--n", "1:2", "--bogus"]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required(self, capsys):
        assert main(["sweep", "--n", "1:2"]) == 1

    def test_domain_error(self, capsys):
        assert main(["lower", "cube", "--r", "0.5", "--n", "1"]) == 1

    @pytest.mark.parametrize("argv", [
        ["lower", "mixedpbin", "--r", "2", "--n", "4", "--m", "0"],
        ["upper", "chi2", "--r", "nan"],
        ["upper", "chi2", "--r", "inf"],
        ["lower", "cube", "--r", "nan", "--n", "1"],
        ["sweep", "--r", "2", "--n", "1:2", "--workers", "0"],
        ["upper", "mad", "--r", "2", "--mc", "1000", "--workers", "0"],
        ["upper", "mad", "--r", "1e200"],
        ["upper", "bound", "--r", "1e200"],
        ["upper", "chi2", "--r", "1e200"],
        ["sweep", "--r", "1e300", "--n", "1:2"],
        ["lower", "cube", "--r", "2", "--n", "5:1"],
        ["lower", "risks", "--r", "2", "--n", "5:1"],
    ])
    def test_boundary_inputs_exit_one(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() and "Traceback" not in captured.err

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    def test_seed_outside_64_bits_exits_one(self, capsys, density, seed):
        # streams.child_seed masks a seed to 64 bits, so each would draw
        # the rows of its value mod 2^64.
        for argv in (["upper", "mad", "--r", "2", "--n", "4", "--mc", "1000"],
                     ["experiment", "sample", "--density", str(density)],
                     ["verify", "--quick"]):
            assert main([*argv, "--seed", seed]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "must be in [0, 2^64)" in captured.err

    def test_largest_seed_is_accepted(self, capsys):
        code, out = run_cli(capsys, "upper", "mad", "--r", "2", "--n", "4",
                            "--mc", "1000", "--seed", "18446744073709551615")
        assert code == 0 and out.count("\n") == 2

    def test_huge_r_floor_needs_no_certificate(self, capsys):
        code, out = run_cli(capsys, "upper", "floor", "--r", "1e200",
                            "--n", "1")
        assert code == 0 and "0.25" in out

    @pytest.mark.parametrize("exc", [
        MemoryError(),
        MemoryError("Unable to allocate 2.24 GiB for an array with shape "
                    "(300000001,) and data type float64"),
    ])
    def test_memory_error_exits_one_without_traceback(self, capsys,
                                                      monkeypatch, exc):
        def fail(ratio, k):
            raise exc
        monkeypatch.setattr("obsvalue.cli.exact_mad", fail)
        assert main(["upper", "mad", "--r", "2", "--n", "300000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert (str(exc) or "MemoryError") in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["lower", "cube", "--r", "2", "--n", "1099511627776"],
        ["sweep", "--r", "2", "--n", "4:1099511627776:x2"],
        ["sweep", "--r", "2", "--n", "1:30000000"],
        # Ranges longer than sys.maxsize, which len() cannot count.
        ["sweep", "--r", "2", "--n", "1:99999999999999999999"],
        ["lower", "cube", "--r", "2", "--n", "1:99999999999999999999"],
        ["lower", "risks", "--r", "2", "--n", "1:99999999999999999999"],
        ["upper", "bound", "--r", "2", "--n", "1:99999999999999999999:3"],
    ])
    def test_output_budget_exits_one_in_one_line(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "output budget" in captured.err

    @pytest.mark.parametrize("argv", [
        ["lower", "risks", "--r", "2", "--n", "1099511627776"],
        ["lower", "risks", "--r", "2", "--n", "2796202", "--format", "json"],
        ["lower", "mixedpbin", "--r", "2", "--m", "1099511627776"],
        ["lower", "mixedpbin", "--r", "2", "--m", "2",
         "--n", "1099511627776"],
        ["lower", "risks", "--r", "2", "--n", "1:100000000"],
    ])
    def test_lower_output_budget_refuses_before_allocating(
            self, capsys, traced_peak, argv):
        code, peak = traced_peak(lambda: main(argv))
        assert code == 1 and peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "output budget" in captured.err

    def test_risks_are_refused_from_the_first_row_over_budget(
            self, capsys, monkeypatch):
        # (n + 1) rows of 3 cells at 128 bytes: n = 2 796 201 fits 2^30.
        def started(r, n_max):
            raise ValueError("rows started")
        monkeypatch.setattr("obsvalue.cli.bayes_risk_curve", started)
        for n, err in ((2_796_201, "rows started"),
                       (2_796_202, "output budget")):
            assert main(["lower", "risks", "--r", "2", "--n", str(n)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and err in captured.err

    @pytest.mark.parametrize("argv", [
        "upper floor --r 2 --n 1:4000000000",
        "upper mad --r 2 --n 1:4000000000 --format json",
        "upper mad --r 2 --n 100000000000000",  # one Binomial band
        "experiment sample --density {density} --n 100000000000",
    ], ids=["upper-floor", "upper-mad-json", "upper-mad-band",
            "experiment-sample"])
    def test_oversized_table_is_refused_before_any_row(
            self, capsys, traced_peak, density, argv):
        # Unchecked, these asked for about 1.1 TB, 2.8 TB, 7.3 GiB and 10 TB.
        code, peak = traced_peak(
            lambda: main(argv.format(density=density).split()))
        assert code == 1 and peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "output budget" in captured.err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv, rows, columns", [
        ("upper bound --r 2 --n 1:20000", 20_000, 3),
        ("upper floor --r 2 --n 1:20000", 20_000, 3),
        ("upper mad --r 2 --n 1:4000", 4000, 7),
        ("lower risks --r 2 --n 19999", 20_000, 3),
        ("experiment sample --density {density} --n 20000", 20_000, 1),
        ("sweep --r 2 --n 1:20000", 20_000, 12),
    ], ids=["upper-bound", "upper-floor", "upper-mad", "lower-risks",
            "experiment-sample", "sweep"])
    def test_table_stays_within_the_cell_budget(
            self, capsys, traced_peak, monkeypatch, density, argv, rows,
            columns, fmt):
        # The row check's premise: a table holds at most _CELL_BYTES a
        # cell at its peak, whatever the table and the format.
        if argv.startswith("sweep"):
            # Bounds at a constant cost: real ones take about 18 s for
            # these rows, and the engine's own 7.6 MB would swamp the
            # cells of fewer.  The values have a real bound's digits.
            monkeypatch.setattr("obsvalue.lower.cube_lower", flat_cube)
            monkeypatch.setattr("obsvalue.rates.exact_mad",
                                lambda ratio, k: 0.25 / math.sqrt(k))
        argv = argv.format(density=density).split() + ["--format", fmt]
        main(argv)  # warm caches and imports
        capsys.readouterr()
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0 and peak <= rows * columns * _CELL_BYTES
        out = capsys.readouterr().out
        if fmt == "csv":
            table = out.splitlines()[0 if argv[0] == "experiment" else 1:]
        else:
            table = json.loads(out)
            table = table["reports"] if argv[0] == "sweep" else table
        assert len(table) == rows

    def test_lower_cube_refuses_before_its_first_row(self, capsys,
                                                     monkeypatch):
        # It computed 27 bounds before it refused n = 27 000 001.
        calls = []
        monkeypatch.setattr("obsvalue.lower.cube_lower",
                            lambda *args, **kw: calls.append(args))
        assert main(["lower", "cube", "--r", "2",
                     "--n", "1:30000000:1000000"]) == 1
        captured = capsys.readouterr()
        assert calls == [] and captured.out == ""
        assert "output budget" in captured.err

    def test_sweep_refuses_its_rows_before_the_first_bound(
            self, capsys, monkeypatch, traced_peak):
        # Rows of 12 cells at 128 bytes: 699 050 fit 2^30, one more does
        # not; each n alone is inside cube_lower's own output check.
        def started(*args, **kw):
            raise ValueError("bounds started")
        monkeypatch.setattr("obsvalue.lower.cube_lower", started)
        for n, err in ((699_050, "bounds started"),
                       (699_051, "output budget")):
            assert main(["sweep", "--r", "2", "--n", f"1:{n}"]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and err in captured.err
        code, peak = traced_peak(lambda: main(
            ["sweep", "--r", "2", "--n", "1:3000000", "--format", "json"]))
        assert code == 1 and peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "the 3000000 rows" in captured.err
        assert "output budget" in captured.err

    def test_lower_cube_rows_share_one_curve(self, capsys, monkeypatch):
        import obsvalue.lower as lower
        curves, real = [], lower.bayes_risk_curve
        monkeypatch.setattr(lower, "bayes_risk_curve",
                            lambda r, n: curves.append(n) or real(r, n))
        code, out = run_cli(capsys, "lower", "cube", "--r", "2",
                            "--n", "1:300:23")
        assert code == 0 and curves == [301]
        # each row as cube_lower gives it from its own curve
        for line in out.splitlines()[1:]:
            fields = line.split(",")
            res = cube_lower(int(fields[1]), 2.0)
            assert fields[3:6] == [str(res.l_star), format_number(res.delta),
                                   format_number(res.delta_avg)]

    @pytest.mark.parametrize("exc", [OverflowError(), ZeroDivisionError("x"),
                                     AssertionError()])
    def test_numeric_and_assertion_errors_exit_one(self, capsys,
                                                   monkeypatch, exc):
        def fail(r):
            raise exc
        monkeypatch.setattr("obsvalue.cli.hoeffding_certificate", fail)
        assert main(["upper", "chi2", "--r", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.strip()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_help_documents_every_csv_column(self, capsys):
        main(["sweep", "--help"])
        text = capsys.readouterr().out
        assert all(f.name in text for f in dataclasses.fields(BoundReport))
        main(["upper", "--help"])
        text = capsys.readouterr().out
        for col in ("exact_mad_half", "certificate_bound", "floor_half",
                    "mc_estimate", "mc_ci"):
            assert col in text
        main(["lower", "--help"])
        text = capsys.readouterr().out
        for col in ("l_star", "delta_max", "delta_avg", "richness_bound",
                    "k_star", "mass_sqrt_m", "method"):
            assert col in text

    def test_verify_quick_passes(self, capsys):
        assert main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out

    def test_verify_failure_exits_two(self, capsys, monkeypatch):
        import obsvalue.verify as verify_mod

        def broken(budget, rng):
            return False, "synthetic failure"

        monkeypatch.setattr(verify_mod, "CHECKS",
                            (("synthetic", broken),))
        assert main(["verify", "--quick"]) == 2
        assert "FAIL synthetic" in capsys.readouterr().out


def run_python(*argv):
    # The child imports the same package as this process, installed or not.
    src = str(Path(obsvalue.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point():
    result = run_python("-m", "obsvalue.cli", "pbin", "pmf", "0.5", "0.5")
    assert result.returncode == 0
    assert [float(v) for v in result.stdout.split()] == [0.25, 0.5, 0.25]


def test_package_runs_as_module():
    result = run_python("-m", "obsvalue", "pbin", "pmf", "0.5", "0.5")
    assert result.returncode == 0
    assert [float(v) for v in result.stdout.split()] == [0.25, 0.5, 0.25]
    assert run_python("-m", "obsvalue", "frobnicate").returncode == 1


def test_cli_import_loads_no_fft_or_thread_pool():
    # np.fft is loaded at call time only, nothing starts a pool, and the
    # verify suite is imported by its subcommand only, so importing the CLI
    # costs no more than importing numpy and the modules it runs.
    code = ("import sys, numpy; before = set(sys.modules);"
            " import obsvalue.cli;"
            " print(*sorted(name for name in set(sys.modules) - before"
            " if name.startswith(('numpy.fft', 'concurrent'))"
            " or name == 'obsvalue.verify'))")
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


@pytest.mark.parametrize("to", ["out", "stdout"])
@pytest.mark.parametrize("end", ["", "\n"])
def test_emit_holds_one_slice_not_the_text(tmp_path, monkeypatch,
                                           traced_peak, to, end):
    # 8 MiB of text: a whole write encoded a copy of it (and appending the
    # missing newline made another); by slices the peak is one slice and
    # its encoding, whatever the text's size.
    text = "0123456789abcde\n" * (1 << 19) + "tail" + end
    path = tmp_path / "report.txt"
    with open(path, "w") as stream:
        if to == "stdout":
            monkeypatch.setattr(sys, "stdout", stream)
        _, peak = traced_peak(
            lambda: _emit(text, None if to == "stdout" else str(path)))
    assert peak <= 3 * _SLICE
    assert path.read_text() == text + ("" if end else "\n")
