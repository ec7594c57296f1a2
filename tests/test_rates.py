"""Sweep and rate-fit tests."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsvalue import lower
from obsvalue.densities import HypercubeSpec, hypercube_density
from obsvalue.lower import bayes_risk_curve, cube_lower
from obsvalue.rates import (BoundReport, bound_sweep, format_number,
                            rate_fit, reports_to_csv, sweep_summary, to_csv,
                            to_record)
from obsvalue.upper import exact_mad, uniform_ratio

EXACT = 1e-12


class TestRateFit:
    def test_exact_power_law(self):
        fit = rate_fit([(n, 7.0 / math.sqrt(n + 1.0))
                        for n in (1, 2, 4, 8, 16)])
        assert abs(fit.exponent + 0.5) < 1e-9
        assert abs(fit.amplitude - 7.0) < 1e-9
        assert fit.residual < 1e-9
        assert fit.n_range == (1, 16)

    def test_constant_sequence(self):
        fit = rate_fit([(n, 3.0) for n in (1, 2, 3)])
        assert abs(fit.exponent) < 1e-9

    def test_mad_sequence_rate(self):
        ratio = uniform_ratio(
            hypercube_density(HypercubeSpec(2.0, 1, [0]))).two_level
        pts = [(n, exact_mad(ratio, n + 1) / 2.0)
               for n in (4, 8, 16, 32, 64, 128, 256, 512, 1024)]
        fit = rate_fit(pts)
        assert -0.6 <= fit.exponent <= -0.4

    def test_fit_reproduces_inputs_within_residual(self):
        rng = np.random.default_rng(2)
        pts = [(n, 5.0 * (n + 1.0) ** -0.45 * math.exp(rng.normal(0, 0.05)))
               for n in (1, 3, 7, 15, 31, 63)]
        fit = rate_fit(pts)
        for n, v in pts:
            predicted = fit.amplitude * (n + 1.0) ** fit.exponent
            assert abs(math.log(predicted) - math.log(v)) <= fit.residual + EXACT

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rate_fit([(1, 1.0), (2, 2.0)])
        with pytest.raises(ValueError):
            rate_fit([(1, 1.0), (2, 0.0), (3, 2.0)])


class TestBoundSweep:
    def test_first_report_values(self):
        rep = bound_sweep(2.0, [1])[0]
        assert rep.lower >= 0.0208 - rep.lower_ci
        assert abs(rep.upper_closed
                   - 2.0 * math.sqrt(math.pi / 2.0) / math.sqrt(2.0)) < EXACT
        assert rep.lower_method == "exact"

    def test_scaled_upper_closed_constant(self):
        reports = bound_sweep(2.0, [1, 2, 4])
        scaled = [rep.upper_closed * math.sqrt(rep.n + 1.0) for rep in reports]
        assert max(scaled) - min(scaled) < EXACT

    def test_frozen_lower_closed_values(self):
        reports = bound_sweep(2.0, [3, 7, 15, 31])
        want = [0.014731, 0.010417, 0.0073657, 0.0052083]
        got = [rep.lower_closed for rep in reports]
        assert np.abs(np.array(got) - want).max() < 1e-6

    def test_intra_report_orderings(self):
        for rep in bound_sweep(2.0, [1, 2, 4, 8]):
            assert rep.lower_closed <= rep.lower + rep.lower_ci + EXACT
            assert rep.upper_exact <= rep.upper_closed + EXACT
            # a lower bound on the deficiency never exceeds an upper bound
            assert rep.lower - rep.lower_ci <= rep.upper_exact

    @pytest.mark.parametrize("r", [1.5, 2.0, 4.0])
    def test_rows_equal_standalone_cube_lower(self, r, monkeypatch):
        curves = []
        def counted(r, n_max):
            curves.append(n_max)
            return bayes_risk_curve(r, n_max)
        monkeypatch.setattr(lower, "bayes_risk_curve", counted)
        ns = [1, 3, 6, 8, 20, 64]
        reports = bound_sweep(r, ns)
        assert curves == [65]  # one curve for the whole sweep
        for n, rep in zip(ns, reports):
            cube = cube_lower(n, r)
            assert (rep.lower, rep.l_star, rep.delta_avg, rep.lower_method) \
                == (cube.delta, cube.l_star, cube.delta_avg, cube.method)

    def test_rejects_bad_grid(self):
        for ns in ([], [4, 2], [0, 1], range(5, 5), range(9, 0, -1)):
            with pytest.raises(ValueError, match="increasing"):
                bound_sweep(2.0, ns)

    def test_refuses_an_oversized_range_without_listing_it(self,
                                                          traced_peak):
        # listing these 30 million ints took about 1.3 GiB
        def call():
            with pytest.raises(ValueError, match="output budget"):
                bound_sweep(2.0, range(1, 30_000_001))
        _, peak = traced_peak(call)
        assert peak < 64 << 10

    def test_report_invariant_enforced(self):
        with pytest.raises(AssertionError):
            BoundReport(r=2.0, n=1, m=2, lower=0.001, lower_ci=0.0, l_star=1,
                        delta_avg=0.001, lower_method="exact",
                        lower_closed=0.02, upper_exact=0.1, upper_closed=1.0,
                        floor_half=0.05)


class TestEmission:
    def test_format_number_round_trips(self):
        for x in (0.1, 1 / 3, 2.0, 0.09375, 1e-17):
            assert float(format_number(x)) == x

    def test_csv_shape(self):
        reports = bound_sweep(2.0, [1, 2])
        lines = reports_to_csv(reports).strip().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        assert header[0] == "r" and "lower" in header and "upper_exact" in header
        assert len(lines[1].split(",")) == len(header)

    def test_summary_fields(self):
        reports = bound_sweep(2.0, [1, 2, 4, 8])
        summary = sweep_summary(reports)
        assert set(summary) == {"r", "exponent_upper", "exponent_lower",
                                "amplitudes", "residuals", "n_range"}
        assert -1.0 < summary["exponent_upper"] < 0.0
        assert -1.0 < summary["exponent_lower"] < 0.0


def same_value(csv_text: str, value) -> bool:
    """A CSV cell and a JSON value carry the same string or number (NaN
    matches NaN)."""
    if isinstance(value, str):
        return csv_text == value
    x = float(csv_text)
    return x == value or (math.isnan(x) and math.isnan(value))


# Cells of the kinds the reports hold: ints, doubles (NaN when a Monte Carlo
# column is off) and method names.
cells = st.one_of(st.integers(-10**9, 10**9), st.floats(),
                  st.sampled_from(["exact", "gf"]))


@settings(database=None, deadline=None)
@given(st.lists(st.lists(cells, min_size=3, max_size=3), max_size=6))
def test_json_records_parse_back_to_csv_rows(rows):
    columns = ("a", "b", "c")
    lines = to_csv(columns, rows).splitlines()
    records = json.loads(json.dumps([to_record(columns, r) for r in rows]))
    assert lines[0] == "a,b,c" and len(records) == len(lines) - 1 == len(rows)
    for line, rec in zip(lines[1:], records):
        assert list(rec) == list(columns)
        assert all(same_value(text, rec[c])
                   for text, c in zip(line.split(","), columns))
