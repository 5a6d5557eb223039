"""Tests for tolerance calibration (the paper-table substitution core)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import paperdata
from repro.core.resources import Resource
from repro.errors import ValidationError
from repro.users.tolerance import (
    ToleranceSpec,
    ToleranceTable,
    calibrate_lognormal,
    paper_calibrated_table,
)

#: Standard-normal arguments: 0 (both signs), +-1, +-inf, and deep tails
#: where ``ndtr`` rounds to 0 or 1 or goes subnormal.
Z_GRID = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, 8.3, -8.3, 37.5,
          -37.5, -38.5, -40.0, 1e-300, -1e-300)
#: Probabilities: 0, 1, the median, the calibration's 0.05, and deep
#: tails down to the smallest subnormal.
P_GRID = (0.0, 1.0, 0.5, 0.05, 1e-16, 1.0 - 1e-16, 1e-300, 5e-324)


class TestCalibration:
    def test_closed_form_hits_both_targets(self):
        # mean condition: exp(mu + sigma^2/2) == c_a
        # quantile condition: p_react * F(c_05) == 0.05
        c_a, c_05, p_react = 1.17, 1.00, 0.95
        mu, sigma = calibrate_lognormal(c_a, c_05, p_react)
        assert math.exp(mu + sigma**2 / 2) == pytest.approx(c_a)
        from scipy.stats import norm

        f_c05 = norm.cdf((math.log(c_05) - mu) / sigma)
        assert p_react * f_c05 == pytest.approx(0.05, abs=1e-6)

    def test_fallback_without_c05(self):
        mu, sigma = calibrate_lognormal(2.0, None, 0.5)
        assert sigma == 0.6
        assert math.exp(mu + sigma**2 / 2) == pytest.approx(2.0)

    def test_fallback_when_quantile_infeasible(self):
        # p >= p_react: can't discomfort 5% if only 3% ever react.
        mu, sigma = calibrate_lognormal(2.0, 1.0, 0.03)
        assert sigma == 0.6

    def test_degenerate_c05_equals_ca(self):
        # z=0 with R=0 collapses sigma; falls back to the default.
        mu, sigma = calibrate_lognormal(0.64, 0.64, 0.10)
        assert sigma > 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            calibrate_lognormal(-1.0, 0.5, 0.5)
        with pytest.raises(ValidationError):
            calibrate_lognormal(1.0, 0.5, 0.5, p=1.5)


class TestNormalKernels:
    """``ToleranceSpec`` and the batch engine call ``ndtr`` and ``ndtri``,
    the kernels behind ``scipy.stats.norm.cdf`` and ``norm.ppf``; a scipy
    release where a wrapper and its kernel part would move the golden
    study's bytes.  Compared by ``float.hex``."""

    @pytest.mark.parametrize("z", Z_GRID)
    def test_ndtr_is_norm_cdf(self, z):
        from scipy.special import ndtr
        from scipy.stats import norm

        assert float(ndtr(z)).hex() == float(norm.cdf(z)).hex()

    @pytest.mark.parametrize("p", P_GRID)
    def test_ndtri_is_norm_ppf(self, p):
        from scipy.special import ndtri
        from scipy.stats import norm

        assert float(ndtri(p)).hex() == float(norm.ppf(p)).hex()

    def test_random_draws(self):
        from scipy.special import ndtr, ndtri
        from scipy.stats import norm

        rng = np.random.default_rng(20)
        z = rng.standard_normal(200_000) * 4.0
        u = rng.random(200_000)
        # Columns, as the batch engine's replay calls them.
        assert ndtr(z).tobytes() == norm.cdf(z).tobytes()
        assert ndtri(u).tobytes() == norm.ppf(u).tobytes()
        # Scalars, as the per-draw path calls them.
        for zi, ui in zip(z[:2000].tolist(), u[:2000].tolist()):
            assert float(ndtr(zi)).hex() == float(norm.cdf(zi)).hex()
            assert float(ndtri(ui)).hex() == float(norm.ppf(ui)).hex()


class TestToleranceSpec:
    def test_never_react_spec(self):
        spec = ToleranceSpec("word", Resource.MEMORY, p_react=0.0, mu=0.0, sigma=1.0)
        rng = np.random.default_rng(0)
        assert all(math.isinf(spec.sample_threshold(rng)) for _ in range(50))
        assert math.isinf(spec.mean_threshold())
        assert spec.cdf(0.9) == 0.0

    def test_sampling_statistics(self):
        spec = ToleranceSpec("t", Resource.CPU, p_react=1.0, mu=0.0, sigma=0.25)
        rng = np.random.default_rng(1)
        draws = np.array([spec.sample_threshold(rng) for _ in range(4000)])
        assert np.mean(draws) == pytest.approx(spec.mean_threshold(), rel=0.05)

    def test_truncation_keeps_draws_in_range(self):
        spec = ToleranceSpec(
            "t", Resource.CPU, p_react=1.0, mu=0.0, sigma=1.0, range_max=1.5
        )
        rng = np.random.default_rng(2)
        draws = [spec.sample_threshold(rng) for _ in range(500)]
        assert max(draws) <= 1.5

    def test_p_react_fraction(self):
        spec = ToleranceSpec("t", Resource.CPU, p_react=0.3, mu=0.0, sigma=0.5)
        rng = np.random.default_rng(3)
        finite = sum(
            not math.isinf(spec.sample_threshold(rng)) for _ in range(4000)
        )
        assert finite / 4000 == pytest.approx(0.3, abs=0.03)

    @pytest.mark.parametrize("level", [1e-9, 0.1, 0.5, 1.0, 2.0, 10.0, 1e300])
    def test_cdf_is_scaled_norm_cdf(self, level):
        from scipy.stats import norm

        spec = ToleranceSpec("t", Resource.CPU, p_react=0.8, mu=0.1, sigma=0.5)
        z = (math.log(level) - spec.mu) / spec.sigma
        assert spec.cdf(level).hex() == float(0.8 * norm.cdf(z)).hex()

    def test_cdf_with_all_mass_above_range_max(self):
        # f_max rounds to 0: every reactive draw is exp(-inf) == 0.0.
        spec = ToleranceSpec(
            "t", Resource.CPU, p_react=0.5, mu=0.0, sigma=0.1,
            range_max=1e-300,
        )
        assert spec.f_max == 0.0
        rng = np.random.default_rng(4)
        draws = {spec.sample_threshold(rng) for _ in range(50)}
        assert draws == {0.0, math.inf}
        assert spec.cdf(1e-301) == 0.5

    def test_cdf_monotone(self):
        spec = ToleranceSpec("t", Resource.CPU, p_react=0.8, mu=0.0, sigma=0.5)
        values = [spec.cdf(x) for x in (0.1, 0.5, 1.0, 2.0, 10.0)]
        assert values == sorted(values)
        assert values[-1] <= 0.8 + 1e-9

    def test_validation(self):
        with pytest.raises(ValidationError):
            ToleranceSpec("t", Resource.CPU, p_react=1.5, mu=0.0, sigma=1.0)
        with pytest.raises(ValidationError):
            ToleranceSpec("t", Resource.CPU, p_react=0.5, mu=0.0, sigma=-1.0)
        with pytest.raises(ValidationError):
            ToleranceSpec(
                "t", Resource.CPU, p_react=0.5, mu=0.0, sigma=1.0, ramp_bonus=-1.0
            )


class TestPaperTable:
    def test_calibration_and_truncation_match_norm_wrappers(self):
        """Every paper cell's (mu, sigma) and ``f_max`` equal what
        ``norm.ppf`` and ``norm.cdf`` give, bit for bit."""
        from scipy.stats import norm

        table = paper_calibrated_table()
        closed_form = truncated = 0
        for task, resource in table.cells():
            spec = table.spec(task, resource)
            if spec.p_react <= 0.0:
                continue
            published = paperdata.cell(task, resource)
            if published.c_05 is not None and 0.05 < spec.p_react:
                z = float(norm.ppf(0.05 / spec.p_react))
                r = math.log(published.c_a) - math.log(published.c_05)
                sigma = z + math.sqrt(z * z + 2.0 * r)
                mu = math.log(published.c_a) - sigma**2 / 2.0
                assert spec.sigma.hex() == sigma.hex(), (task, resource)
                assert spec.mu.hex() == mu.hex(), (task, resource)
                closed_form += 1
            if spec.range_max is not None:
                truncated += 1
                z_max = (math.log(spec.range_max) - spec.mu) / spec.sigma
                assert spec.f_max.hex() == float(norm.cdf(z_max)).hex()
        assert closed_form > 0 and truncated > 0

    def test_cdf_follows_the_truncated_draws(self):
        """Reactive draws are truncated at ``range_max``, so ``cdf``
        reaches ``p_react`` there and matches the draws below it."""
        table = paper_calibrated_table()
        truncated = 0
        for task, resource in table.cells():
            spec = table.spec(task, resource)
            if spec.p_react <= 0.0 or spec.range_max is None:
                continue
            truncated += 1
            assert spec.cdf(spec.range_max) == spec.p_react, (task, resource)
            assert spec.cdf(3.0 * spec.range_max) == spec.p_react
            level = 0.7 * spec.range_max
            rng = np.random.default_rng(26)
            draws = np.array(
                [spec.sample_threshold(rng) for _ in range(20_000)]
            )
            assert spec.cdf(level) == pytest.approx(
                np.mean(draws <= level), abs=0.01
            ), (task, resource)
        assert truncated > 0

    def test_all_twelve_cells_present(self):
        table = paper_calibrated_table()
        assert len(table) == 12

    def test_starred_cell_never_reacts(self):
        table = paper_calibrated_table()
        spec = table.spec("word", Resource.MEMORY)
        assert spec.p_react == 0.0

    def test_cell_means_match_paper_ca(self):
        table = paper_calibrated_table()
        for task in paperdata.STUDY_TASKS:
            for resource in (Resource.CPU, Resource.MEMORY, Resource.DISK):
                published = paperdata.cell(task, resource)
                if published.c_a is None:
                    continue
                spec = table.spec(task, resource)
                assert spec.mean_threshold() == pytest.approx(
                    published.c_a, rel=1e-6
                )

    def test_frog_in_pot_bonus_pinned(self):
        table = paper_calibrated_table()
        spec = table.spec("powerpoint", Resource.CPU)
        assert spec.ramp_bonus == pytest.approx(
            paperdata.FROG_IN_POT["mean_difference"]
        )

    def test_unknown_cell_falls_back_to_never_react(self):
        table = paper_calibrated_table()
        spec = table.spec("emacs", Resource.CPU)
        assert spec.p_react == 0.0

    def test_empty_table_rejected(self):
        with pytest.raises(ValidationError):
            ToleranceTable({})

    def test_cells_listing(self):
        table = paper_calibrated_table()
        cells = table.cells()
        assert ("quake", Resource.CPU) in cells
        assert len(cells) == 12


@settings(max_examples=50)
@given(
    c_a=st.floats(min_value=0.1, max_value=8.0),
    ratio=st.floats(min_value=0.1, max_value=0.99),
    p_react=st.floats(min_value=0.1, max_value=1.0),
)
def test_property_calibration_mean_always_exact(c_a, ratio, p_react):
    c_05 = c_a * ratio
    mu, sigma = calibrate_lognormal(c_a, c_05, p_react)
    assert sigma > 0
    assert math.exp(mu + sigma**2 / 2) == pytest.approx(c_a, rel=1e-9)
