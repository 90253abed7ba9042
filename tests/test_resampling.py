import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtrack.resampling import (
    DegenerateWeights,
    ParticleSet,
    initial_particle_set,
    inverse_cdf_lookup,
    multinomial_draw,
    multinomial_resample,
    residual_counts,
    residual_draw,
    residual_resample,
    stratified_draw,
    stratified_resample,
    systematic_draw,
    systematic_resample,
    weighted_resample,
    _cdf,
)


def weight_vectors():
    return (
        st.lists(st.floats(0.0, 10.0), min_size=2, max_size=12)
        .map(np.array)
        .filter(lambda w: w.sum() > 1e-6)
    )


def toy_set(weights):
    weights = np.asarray(weights, dtype=float)
    n = len(weights)
    states = np.arange(n * 3, dtype=float).reshape(n, 1, 3)
    return ParticleSet(
        states=states,
        part_weights=np.full((n, 1), 2.0),
        weights=weights / weights.sum(),
        fresh=(1,),
    )


class TestCdfConventions:
    def test_boundary_draw_closes_its_interval(self):
        cdf = np.array([0.2, 0.5, 1.0])
        assert inverse_cdf_lookup(cdf, np.array([0.2])) == [0]
        assert inverse_cdf_lookup(cdf, np.array([0.5])) == [1]
        assert inverse_cdf_lookup(cdf, np.array([1.0])) == [2]
        assert inverse_cdf_lookup(cdf, np.array([0.2000001])) == [1]

    def test_zero_weight_particle_never_selected(self):
        cdf = _cdf(np.array([0.0, 1.0, 0.0, 1.0]))
        draws = np.linspace(1e-12, 1.0, 1001)
        picked = inverse_cdf_lookup(cdf, draws)
        assert set(picked) <= {1, 3}

    def test_cdf_top_is_exactly_one(self):
        w = np.full(7, 0.1)  # cumsum would end at 0.7000000000000001
        assert _cdf(w)[-1] == 1.0

    @pytest.mark.parametrize("draw", [multinomial_draw, stratified_draw, systematic_draw, residual_draw])
    def test_draw_of_one_skips_a_zero_weight_tail(self, draw):
        class TopOfCdf:
            """Every uniform is 0.0, so each scheme's last draw is u = 1."""

            def random(self, size=None):
                return 0.0 if size is None else np.zeros(size)

        w = np.array([0.1, 0.3, 0.0])
        assert np.cumsum(w / w.sum())[1] < 1.0  # the last positive step rounds below 1
        assert 2 not in draw(w, TopOfCdf()).tolist()

    def test_top_of_cdf_is_one_from_the_last_positive_weight_on(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            w = np.concatenate([rng.random(rng.integers(1, 6)), np.zeros(rng.integers(1, 4))])
            cdf = _cdf(w)
            last = np.flatnonzero(w)[-1]
            assert np.all(cdf[last:] == 1.0) and inverse_cdf_lookup(cdf, np.array([1.0])) == [last]

    @pytest.mark.parametrize("bad", [[], [-1.0, 2.0], [np.nan, 1.0], [np.inf, 1.0], [0.0, 0.0]])
    def test_degenerate_weights_rejected(self, bad):
        with pytest.raises(DegenerateWeights):
            _cdf(np.array(bad, dtype=float))


class TestMultinomial:
    def test_deterministic_per_seed(self):
        w = np.array([0.1, 0.2, 0.3, 0.4])
        a = multinomial_draw(w, np.random.default_rng(5))
        b = multinomial_draw(w, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_size_override(self):
        w = np.array([0.5, 0.5])
        assert len(multinomial_draw(w, np.random.default_rng(0), size=17)) == 17

    def test_point_mass(self):
        w = np.array([0.0, 1.0, 0.0])
        picked = multinomial_draw(w, np.random.default_rng(1), size=100)
        assert (picked == 1).all()

    def test_frequencies_track_weights(self):
        w = np.array([0.05, 0.15, 0.3, 0.5])
        picked = multinomial_draw(w, np.random.default_rng(2), size=40000)
        freq = np.bincount(picked, minlength=4) / 40000
        se = np.sqrt(w * (1 - w) / 40000)
        assert (np.abs(freq - w) < 4 * se + 1e-12).all()


class TestStratified:
    def test_indices_nondecreasing(self):
        w = np.random.default_rng(3).uniform(0, 1, 20)
        picked = stratified_draw(w, np.random.default_rng(4))
        assert (np.diff(picked) >= 0).all()

    def test_exact_multiples_are_deterministic(self):
        # N w_i all integers: every stratum boundary aligns with the CDF steps
        w = np.array([0.25, 0.5, 0.25, 0.0])
        for seed in range(10):
            picked = stratified_draw(w, np.random.default_rng(seed))
            np.testing.assert_array_equal(np.bincount(picked, minlength=4), [1, 2, 1, 0])


class TestSystematic:
    def test_offset_validation(self):
        w = np.full(4, 0.25)
        with pytest.raises(ValueError):
            systematic_draw(w, offset=0.0)
        with pytest.raises(ValueError):
            systematic_draw(w, offset=0.26)
        systematic_draw(w, offset=0.25)

    def test_explicit_offset_is_deterministic(self):
        w = np.array([0.4, 0.1, 0.2, 0.3])
        a = systematic_draw(w, offset=0.07)
        b = systematic_draw(w, offset=0.07)
        np.testing.assert_array_equal(a, b)

    @given(weight_vectors(), st.floats(1e-9, 1.0))
    @settings(max_examples=200)
    def test_copy_counts_floor_or_ceil(self, w, frac):
        n = len(w)
        offset = frac / n
        picked = systematic_draw(w, offset=offset)
        counts = np.bincount(picked, minlength=n)
        scaled = n * w / w.sum()
        assert (counts >= np.floor(scaled) - 1e-9).all()
        assert (counts <= np.ceil(scaled) + 1e-9).all()

    def test_uniform_weights_identity_permutation(self):
        w = np.full(6, 1.0 / 6.0)
        picked = systematic_draw(w, offset=0.5 / 6.0)
        np.testing.assert_array_equal(picked, np.arange(6))


class TestResidual:
    def test_counts_are_floors(self):
        counts, residuals = residual_counts(np.array([0.5, 0.3, 0.2]))
        np.testing.assert_array_equal(counts, [1, 0, 0])
        np.testing.assert_allclose(residuals, [0.5, 0.9, 0.6])

    def test_integer_weights_fully_deterministic(self):
        w = np.array([0.5, 0.25, 0.25, 0.0])
        for seed in range(5):
            picked = residual_draw(w, np.random.default_rng(seed))
            np.testing.assert_array_equal(np.sort(picked), [0, 0, 1, 2])

    @given(weight_vectors())
    @settings(max_examples=100)
    def test_deterministic_floor_always_present(self, w):
        picked = residual_draw(w, np.random.default_rng(0))
        counts = np.bincount(picked, minlength=len(w))
        floors, _ = residual_counts(w)
        assert len(picked) == len(w)
        assert (counts >= floors).all()


class TestResampledSets:
    @pytest.mark.parametrize(
        "resample",
        [multinomial_resample, stratified_resample, systematic_resample, residual_resample],
    )
    def test_bookkeeping_reset(self, resample):
        pset = toy_set([0.1, 0.6, 0.3])
        out = resample(pset, np.random.default_rng(0))
        assert out.n == 3
        np.testing.assert_array_equal(out.weights, np.full(3, 1.0 / 3.0))
        np.testing.assert_array_equal(out.part_weights, np.ones((3, 1)))
        assert out.fresh == ()
        # every output row is one of the input rows
        for row in out.states:
            assert any(np.array_equal(row, orig) for orig in pset.states)

    def test_initial_particle_set(self):
        state = np.array([[1.0, 2.0, 0.5], [3.0, 4.0, -0.5]])
        pset = initial_particle_set(5, state)
        assert pset.n == 5 and pset.part_count == 2
        for i in range(5):
            np.testing.assert_array_equal(pset.states[i], state)
        np.testing.assert_array_equal(pset.weights, np.full(5, 0.2))
        assert pset.fresh == ()

    def test_copy_is_deep(self):
        pset = toy_set([0.5, 0.5])
        dup = pset.copy()
        dup.states[0, 0, 0] = 99.0
        dup.weights[0] = 99.0
        assert pset.states[0, 0, 0] != 99.0
        assert pset.weights[0] != 99.0


class TestWeighted:
    def test_score_validation(self):
        pset = toy_set([0.2, 0.8])
        with pytest.raises(DegenerateWeights):
            weighted_resample(pset, lambda w: np.zeros_like(w), np.random.default_rng(0))
        with pytest.raises(DegenerateWeights):
            weighted_resample(pset, lambda w: w - 1.0, np.random.default_rng(0))
        with pytest.raises(DegenerateWeights):
            weighted_resample(pset, lambda w: np.array([1.0]), np.random.default_rng(0))

    def _frequencies(self, pset, g, seeds):
        hits = np.zeros(pset.n)
        for seed in range(seeds):
            out = weighted_resample(pset, g, np.random.default_rng(seed))
            for row in out.states:
                hits[int(row[0, 0]) // 3] += 1
        return hits / hits.sum()

    def test_identity_scores_are_exactly_unbiased(self):
        # rho = w makes every correction weight constant, so the equalizing
        # pass keeps each stage-one pick exactly once
        w = np.array([0.1, 0.2, 0.3, 0.4])
        freq = self._frequencies(toy_set(w), lambda v: v, 4000)
        assert np.abs(freq - w).max() < 0.02

    def test_sharp_scores_concentrate_on_heavy_particles(self):
        w = np.array([0.1, 0.2, 0.3, 0.4])
        freq = self._frequencies(toy_set(w), lambda v: np.exp(20.0 * v), 2000)
        assert (np.diff(freq) > 0).all()
        assert freq[3] > w[3] + 0.1
