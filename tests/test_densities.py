"""Experiment-model tests: construction, exact integrals and TV, sampling."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsvalue.densities import (HypercubeSpec, StepDensity, density_integral,
                                hypercube_density, richness_witness,
                                sample_density, tv_distance)
from obsvalue.verify import LEVEL, binom_two_sided

EXACT = 1e-12
UNIFORM = StepDensity([0.0, 1.0], [1.0])

# Interior breakpoints and heights of a valid density (normalized on
# construction); heights are bounded so the normalization cannot overflow.
cuts = st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                max_size=12, unique=True).map(sorted)
heights = st.floats(1e-3, 1e3)


def random_density(rng):
    k = int(rng.integers(1, 8))
    bp = np.concatenate(([0.0], np.sort(rng.random(k)), [1.0]))
    return StepDensity(bp, rng.uniform(0.05, 2.0, size=k + 1), normalize=True)


# Reference forms of the step-density formulas through numpy's Python-level
# helpers (np.clip, np.union1d, np.diff, boolean masks): oracles that the
# module must match bit for bit.
def clipped_call(f, x):
    idx = np.searchsorted(f.breakpoints, np.asarray(x, dtype=float),
                          side="right") - 1
    return f.values[np.clip(idx, 0, f.values.size - 1)]


def union_tv(f, g):
    grid = np.union1d(f.breakpoints, g.breakpoints)
    mids = 0.5 * (grid[:-1] + grid[1:])
    gap = np.abs(clipped_call(f, mids) - clipped_call(g, mids))
    return float(0.5 * np.sum(gap * np.diff(grid)))


def looped_hypercube_values(spec):
    lo, hi = 1.0 / spec.r, 2.0 - 1.0 / spec.r
    values = np.empty(2 * spec.m)
    for j, bit in enumerate(spec.bits):
        values[2 * j], values[2 * j + 1] = (hi, lo) if bit else (lo, hi)
    return values


def union_assemble(wit, bits):
    grid = wit.pairs[0][0].breakpoints
    for q0, q1 in wit.pairs:
        grid = np.union1d(grid, np.union1d(q0.breakpoints, q1.breakpoints))
    mids = 0.5 * (grid[:-1] + grid[1:])
    heights = np.zeros(mids.size)
    for w, (q0, q1), bit in zip(wit.weights, wit.pairs, bits):
        heights += w * clipped_call(q1 if bit else q0, mids)
    return grid, heights


def masked_sample(f, n, rng):
    cdf = np.concatenate(([0.0], np.cumsum(f.values * np.diff(f.breakpoints))))
    u = rng.random(n) * cdf[-1]
    idx = np.clip(np.searchsorted(cdf, u, side="right") - 1,
                  0, f.values.size - 1)
    h = f.values[idx]
    offset = np.zeros(n)
    pos = h > 0.0
    offset[pos] = (u[pos] - cdf[idx[pos]]) / h[pos]
    return f.breakpoints[idx] + offset


def oracle_densities():
    rng = np.random.default_rng(53)
    return [UNIFORM, StepDensity([0.0, 0.5, 1.0], [0.5, 1.5]),
            hypercube_density(HypercubeSpec(3.0, 4, [1, 0, 0, 1])),
            *(random_density(rng) for _ in range(20))]


# A zero-height piece at the start, in the middle and at the end; the
# pieces' masses are dyadic, so every cdf entry, and u = U * cdf[-1] for a
# dyadic U, is exact.
ZERO_PIECES = [StepDensity(bp, v) for bp, v in [
    ([0.0, 0.5, 1.0], [0.0, 2.0]),
    ([0.0, 0.25, 0.5, 1.0], [2.0, 0.0, 1.0]),
    ([0.0, 0.5, 1.0], [2.0, 0.0]),
    ([0.0, 0.125, 0.375, 0.75, 1.0], [0.0, 2.0, 0.0, 2.0]),
]]


class FixedUniforms:
    """Stands in for a Generator whose ``random`` returns given values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


class TestStepDensity:
    def test_rejects_unnormalized_without_flag(self):
        with pytest.raises(ValueError, match="normalize"):
            StepDensity([0.0, 1.0], [2.0])

    def test_normalize_flag(self):
        f = StepDensity([0.0, 0.5, 1.0], [2.0, 2.0], normalize=True)
        assert np.allclose(f.values, [1.0, 1.0], atol=EXACT)

    @pytest.mark.parametrize("values", [[0.0], [0.0, 0.0]])
    def test_refuses_to_normalize_zero_mass(self, values):
        # It divided by the zero integral: values NaN and a RuntimeWarning.
        bp = np.linspace(0.0, 1.0, len(values) + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero density"):
                StepDensity(bp, values, normalize=True)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            StepDensity([0.0, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            StepDensity([0.1, 1.0], [1.0])
        with pytest.raises(ValueError):
            StepDensity([0.0, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            StepDensity([0.0, 0.5, 1.0], [2.5, -0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_breakpoints(self, bad):
        for normalize in (False, True):
            with pytest.raises(ValueError, match="strictly increasing"):
                StepDensity([0.0, bad, 1.0], [1.0, 1.0], normalize=normalize)
        with pytest.raises(ValueError, match="strictly increasing"):
            StepDensity([0.0, 0.5, bad, 1.0], [1.0, 1.0, 1.0],
                        normalize=True)

    def test_half_open_evaluation(self):
        f = StepDensity([0.0, 0.5, 1.0], [0.5, 1.5])
        assert f(0.0) == 0.5 and f(0.5) == 1.5 and f(1.0) == 1.5

    def test_evaluation_matches_the_clipped_search(self):
        for f in oracle_densities():
            xs = [-1.0, *f.breakpoints, 2.0, math.nan,
                  *(0.5 * (f.breakpoints[:-1] + f.breakpoints[1:]))]
            assert np.array_equal(f(xs), clipped_call(f, xs))
            table = np.array(xs[:6]).reshape(2, 3)
            assert np.array_equal(f(table), clipped_call(f, table))
            for x in xs:
                got, want = f(x), clipped_call(f, x)
                assert type(got) is type(want) and np.ndim(got) == 0
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(f(np.asarray(x)), want)

    def test_widths_are_the_breakpoint_differences(self):
        for f in oracle_densities():
            assert np.array_equal(f.widths, np.diff(f.breakpoints))

    def test_json_round_trip(self):
        f = hypercube_density(HypercubeSpec(2.0, 2, [0, 1]))
        g = StepDensity.from_json(f.to_json())
        assert np.array_equal(f.breakpoints, g.breakpoints)
        assert np.array_equal(f.values, g.values)

    @settings(database=None, deadline=None)
    @given(cuts.flatmap(lambda c: st.tuples(
        st.just(c), st.lists(heights, min_size=len(c) + 1,
                             max_size=len(c) + 1))))
    def test_json_round_trip_property(self, case):
        inner, vals = case
        f = StepDensity([0.0, *inner, 1.0], vals, normalize=True)
        g = StepDensity.from_json(f.to_json())
        assert np.array_equal(f.breakpoints, g.breakpoints)
        assert np.array_equal(f.values, g.values)


class TestHypercubeDensity:
    def test_single_cell_r2(self):
        f = hypercube_density(HypercubeSpec(2.0, 1, [0]))
        assert f.breakpoints.tolist() == [0.0, 0.5, 1.0]
        assert f.values.tolist() == [0.5, 1.5]

    def test_two_cells_mixed_bits(self):
        f = hypercube_density(HypercubeSpec(2.0, 2, [0, 1]))
        assert f.values.tolist() == [0.5, 1.5, 1.5, 0.5]
        assert f.breakpoints.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_flip_is_reflection(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            r = float(rng.uniform(1.05, 9.0))
            bits = rng.integers(0, 2, size=m)
            f = hypercube_density(HypercubeSpec(r, m, bits))
            g = hypercube_density(HypercubeSpec(r, m, 1 - bits))
            assert abs(density_integral(g, 0.0, 1.0) - 1.0) < EXACT
            # reflecting each cell about its midpoint swaps the halves
            assert np.array_equal(
                g.values.reshape(m, 2)[:, ::-1], f.values.reshape(m, 2))

    def test_respects_floor_and_normalization(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            r = float(rng.uniform(1.01, 20.0))
            m = int(rng.integers(1, 9))
            f = hypercube_density(
                HypercubeSpec(r, m, rng.integers(0, 2, size=m)))
            assert f.values.min() >= 1.0 / r - EXACT
            assert abs(density_integral(f, 0.0, 1.0) - 1.0) < EXACT

    def test_rejects_r_at_most_one(self):
        with pytest.raises(ValueError):
            HypercubeSpec(1.0, 1, [0])
        with pytest.raises(ValueError):
            HypercubeSpec(2.0, 2, [0, 2])

    def test_rejects_fractional_bits(self):
        for bits in ([0, 0.5], [1.7, 0]):
            with pytest.raises(ValueError, match="bits must be 0 or 1"):
                HypercubeSpec(2.0, 2, bits)
        assert HypercubeSpec(2.0, 2, [1.0, np.int64(0)]).bits == (1, 0)

    def test_values_match_the_loop(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            m = int(rng.integers(1, 12))
            spec = HypercubeSpec(float(rng.uniform(1.01, 30.0)), m,
                                 rng.integers(0, 2, size=m))
            f = hypercube_density(spec)
            assert np.array_equal(f.values, looped_hypercube_values(spec))
            assert f.breakpoints[-1] == 1.0 and f.breakpoints.size == 2 * m + 1

    def test_spec_json_round_trip(self):
        spec = HypercubeSpec(2.5, 3, [1, 0, 1])
        assert HypercubeSpec.from_json(spec.to_json()) == spec

    @settings(database=None, deadline=None)
    @given(st.floats(1.0, 1e300, exclude_min=True),
           st.lists(st.integers(0, 1), min_size=1, max_size=64))
    def test_spec_json_round_trip_property(self, r, bits):
        spec = HypercubeSpec(r, len(bits), bits)
        assert HypercubeSpec.from_json(spec.to_json()) == spec


class TestDensityIntegral:
    def test_uniform_interval(self):
        assert abs(density_integral(UNIFORM, 0.2, 0.7) - 0.5) < EXACT

    def test_hypercube_left_half(self):
        f = hypercube_density(HypercubeSpec(2.0, 1, [0]))
        assert abs(density_integral(f, 0.0, 0.5) - 0.25) < EXACT

    def test_empty_interval(self):
        assert density_integral(UNIFORM, 0.3, 0.3) == 0.0

    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError):
            density_integral(UNIFORM, 0.7, 0.2)


class TestSampleDensity:
    def test_uniform_ks_statistic(self):
        n = 10**5
        x = np.sort(sample_density(UNIFORM, n, np.random.default_rng(42)))
        grid = np.arange(1, n + 1) / n
        ks = max(np.abs(grid - x).max(), np.abs(x - (grid - 1.0 / n)).max())
        # 0.001-level asymptotic critical value sqrt(-ln(alpha/2)/2)/sqrt(n)
        assert ks < math.sqrt(-math.log(0.0005) / 2.0) / math.sqrt(n)

    def test_zero_height_piece_gets_no_samples(self):
        for f in ZERO_PIECES:
            x = sample_density(f, 50_000, np.random.default_rng(3))
            assert np.all(f(x) > 0.0)

    def test_hypercube_left_half_frequency(self):
        f = hypercube_density(HypercubeSpec(2.0, 1, [0]))
        n = 10**5
        x = sample_density(f, n, np.random.default_rng(17))
        assert binom_two_sided(np.count_nonzero(x < 0.5), n, 0.25) >= LEVEL

    def test_cell_frequencies_match_integrals(self):
        rng = np.random.default_rng(11)
        f = random_density(rng)
        n = 10**5
        x = sample_density(f, n, rng)
        for a, b in zip(np.linspace(0, 1, 6)[:-1], np.linspace(0, 1, 6)[1:]):
            p = density_integral(f, float(a), float(b))
            hits = np.count_nonzero((x >= a) & (x < b))
            assert binom_two_sided(hits, n, p) >= LEVEL


    def test_draws_match_the_masked_formula(self):
        for f in [*ZERO_PIECES, *oracle_densities()]:
            with np.errstate(all="raise"):
                got = sample_density(f, 20_000, np.random.default_rng(71))
            want = masked_sample(f, 20_000, np.random.default_rng(71))
            assert np.array_equal(got, want)

    def test_uniforms_on_the_cdf_entries_match_the_masked_formula(self):
        # u equal to a cdf entry is where the search side and a zero-height
        # piece matter: side="right" must take the piece to the right.
        u = [0.0, 0.125, 0.25, 0.5, 0.75, 1.0 - 2.0**-53]
        for f in ZERO_PIECES:
            with np.errstate(all="raise"):
                got = sample_density(f, len(u), FixedUniforms(u))
            want = masked_sample(f, len(u), FixedUniforms(u))
            assert np.array_equal(got, want)

    def test_no_draws(self):
        assert sample_density(UNIFORM, 0, np.random.default_rng(0)).size == 0


class TestTvDistance:
    def test_identical_densities(self):
        f = hypercube_density(HypercubeSpec(3.0, 2, [1, 0]))
        assert tv_distance(f, f) == 0.0

    def test_cell_pair_separation_r2(self):
        for q0, q1 in richness_witness(2.0, 3).pairs:
            assert abs(tv_distance(q0, q1) - 0.5) < EXACT

    def test_uniform_vs_hypercube(self):
        f = hypercube_density(HypercubeSpec(2.0, 1, [0]))
        assert abs(tv_distance(UNIFORM, f) - 0.25) < EXACT

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            f, g, h = (random_density(rng) for _ in range(3))
            assert abs(tv_distance(f, g) - tv_distance(g, f)) < EXACT
            assert (tv_distance(f, h)
                    <= tv_distance(f, g) + tv_distance(g, h) + EXACT)

    def test_matches_the_union_formula(self):
        rng = np.random.default_rng(67)
        pool = [*oracle_densities(), *ZERO_PIECES]
        for _ in range(200):
            f, g = (pool[i] for i in rng.integers(0, len(pool), size=2))
            assert tv_distance(f, g) == union_tv(f, g)
        for q0, q1 in richness_witness(2.5, 4).pairs:
            assert tv_distance(q0, q1) == union_tv(q0, q1)

    def test_bit_flip_distance(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            m = int(rng.integers(1, 7))
            r = float(rng.uniform(1.1, 6.0))
            bits = rng.integers(0, 2, size=m)
            flips = rng.integers(0, 2, size=m)
            f = hypercube_density(HypercubeSpec(r, m, bits))
            g = hypercube_density(HypercubeSpec(r, m, bits ^ flips))
            want = flips.sum() * (1.0 - 1.0 / r) / m
            assert abs(tv_distance(f, g) - want) < EXACT


class TestRichnessWitness:
    def test_r2_m4(self):
        wit = richness_witness(2.0, 4)
        assert wit.alpha == 0.5 and wit.beta == 1.0
        assert np.allclose(wit.weights, 0.25, atol=EXACT)
        assert all(abs(tv_distance(q0, q1) - 0.5) < EXACT
                   for q0, q1 in wit.pairs)

    def test_alpha_near_one(self):
        assert abs(richness_witness(1.01, 1).alpha - (1 - 1 / 1.01)) < EXACT

    def test_weights_dominate_beta_over_m(self):
        wit = richness_witness(3.0, 5)
        assert np.all(wit.weights >= wit.beta / wit.m - EXACT)
        assert abs(wit.weights.sum() - 1.0) < EXACT

    def test_assemble_reproduces_vertex_density(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            m = int(rng.integers(1, 6))
            r = float(rng.uniform(1.1, 5.0))
            bits = tuple(int(b) for b in rng.integers(0, 2, size=m))
            wit = richness_witness(r, m)
            direct = hypercube_density(HypercubeSpec(r, m, bits))
            rebuilt = wit.assemble(bits)
            grid = np.linspace(0.0, 1.0, 8 * m + 1)[:-1]
            assert np.abs(rebuilt(grid) - direct(grid)).max() < EXACT
            assert tv_distance(rebuilt, direct) < EXACT

    def test_assemble_matches_the_union_loop(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            m = int(rng.integers(1, 8))
            wit = richness_witness(float(rng.uniform(1.1, 9.0)), m)
            bits = rng.integers(0, 2, size=m)
            grid, heights = union_assemble(wit, bits)
            rebuilt = wit.assemble(bits)
            assert np.array_equal(rebuilt.breakpoints, grid)
            assert np.array_equal(rebuilt.values, heights)

    @pytest.mark.parametrize("bits", [(0, 2), (-1, 0), (1, 1, 0)])
    def test_assemble_rejects_bad_bits(self, bits):
        with pytest.raises(ValueError):
            richness_witness(2.0, 2).assemble(bits)

    def test_rejects_r_at_most_one(self):
        with pytest.raises(ValueError):
            richness_witness(0.9, 2)
