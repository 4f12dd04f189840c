"""Tests for named random streams."""

import numpy as np
import pytest

from repro.des import RandomStream, RandomStreams
from repro.des import rng as rng_module


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = RandomStreams(seed=7).stream("updates")
        b = RandomStreams(seed=7).stream("updates")
        assert [a.exponential(10) for _ in range(5)] == [
            b.exponential(10) for _ in range(5)
        ]

    def test_different_names_differ(self):
        streams = RandomStreams(seed=7)
        a = streams.stream("client-0")
        b = streams.stream("client-1")
        assert [a.uniform() for _ in range(4)] != [b.uniform() for _ in range(4)]

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).stream("x")
        b = RandomStreams(seed=2).stream("x")
        assert a.uniform() != b.uniform()

    def test_stream_independent_of_creation_order(self):
        s1 = RandomStreams(seed=3)
        s1.stream("a")
        first = s1.stream("b").uniform()
        s2 = RandomStreams(seed=3)
        second = s2.stream("b").uniform()  # "a" never created
        assert first == second

    def test_stream_cached(self):
        streams = RandomStreams(seed=0)
        assert streams.stream("x") is streams.stream("x")


class TestDistributions:
    @pytest.fixture
    def stream(self):
        return RandomStreams(seed=42).stream("test")

    def test_exponential_mean(self, stream):
        samples = [stream.exponential(100.0) for _ in range(20000)]
        assert np.mean(samples) == pytest.approx(100.0, rel=0.05)
        assert min(samples) >= 0

    def test_exponential_zero_mean(self, stream):
        assert stream.exponential(0.0) == 0.0

    def test_exponential_negative_mean_rejected(self, stream):
        with pytest.raises(ValueError):
            stream.exponential(-1.0)

    def test_uniform_bounds(self, stream):
        for _ in range(1000):
            v = stream.uniform(5.0, 6.0)
            assert 5.0 <= v < 6.0

    def test_randint_inclusive(self, stream):
        values = {stream.randint(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_randint_single_point(self, stream):
        assert stream.randint(9, 9) == 9

    def test_randint_empty_range(self, stream):
        with pytest.raises(ValueError):
            stream.randint(5, 4)

    def test_bernoulli_extremes(self, stream):
        assert not any(stream.bernoulli(0.0) for _ in range(100))
        assert all(stream.bernoulli(1.0) for _ in range(100))

    def test_bernoulli_invalid_p(self, stream):
        with pytest.raises(ValueError):
            stream.bernoulli(1.5)

    def test_bernoulli_rate(self, stream):
        hits = sum(stream.bernoulli(0.3) for _ in range(20000))
        assert hits / 20000 == pytest.approx(0.3, abs=0.02)

    def test_bernoulli_mask(self, stream):
        assert not stream.bernoulli_mask(0.0, 100).any()
        assert stream.bernoulli_mask(1.0, 100).all()
        assert stream.bernoulli_mask(0.5, 0).shape == (0,)
        assert stream.bernoulli_mask(0.3, 20000).mean() == pytest.approx(0.3, abs=0.02)
        with pytest.raises(ValueError):
            stream.bernoulli_mask(-0.1, 10)

    def test_uniform_block_equals_scalar_draws(self):
        block_stream = RandomStream(17, "block")
        scalar_stream = RandomStream(17, "block")
        block = block_stream.uniform_block(300)
        assert block == [scalar_stream.uniform() for _ in range(300)]
        assert all(type(u) is float for u in block)
        # Same generator state afterwards: the next draws agree too.
        assert (
            block_stream._gen.bit_generator.state
            == scalar_stream._gen.bit_generator.state
        )
        assert block_stream.uniform_block(5) == [
            scalar_stream.uniform() for _ in range(5)
        ]
        assert block_stream.uniform_block(0) == []

    def test_uniform_block_serves_bernoulli_trials(self):
        block = RandomStream(18, "trials").uniform_block(200)
        scalar = RandomStream(18, "trials")
        p = 0.37
        assert [u < p for u in block] == [scalar.bernoulli(p) for _ in range(200)]

    def test_poisson_at_least_one(self, stream):
        samples = [stream.poisson_at_least_one(5.0) for _ in range(20000)]
        assert min(samples) >= 1
        assert np.mean(samples) == pytest.approx(5.0, rel=0.05)

    def test_poisson_mean_below_one_rejected(self, stream):
        with pytest.raises(ValueError):
            stream.poisson_at_least_one(0.5)

    def test_choice_without_replacement(self, stream):
        picks = stream.choice_without_replacement(10, 19, 10)
        assert sorted(picks) == list(range(10, 20))

    def test_choice_too_many_rejected(self, stream):
        with pytest.raises(ValueError):
            stream.choice_without_replacement(0, 4, 6)

    def test_shuffled_is_permutation(self, stream):
        out = stream.shuffled([1, 2, 3, 4, 5])
        assert sorted(out) == [1, 2, 3, 4, 5]


class TestStateMemoization:
    """Stream creation memoizes PCG64 seed words per (seed, name)."""

    @staticmethod
    def _reference_state(seed, name):
        entropy = rng_module._derive_entropy(seed, name)
        return np.random.PCG64(np.random.SeedSequence(entropy)).state

    def test_miss_hit_and_past_cap_build_the_seedsequence_state(self, monkeypatch):
        seed, name = 993, "memo-state"
        key = (seed, name)
        assert key not in rng_module._WORDS_CACHE
        miss = RandomStream(seed, name)
        assert key in rng_module._WORDS_CACHE
        hit = RandomStream(seed, name)
        expected = self._reference_state(seed, name)
        assert miss._gen.bit_generator.state == expected
        assert hit._gen.bit_generator.state == expected
        # Past the cap nothing new is cached, and the state is unchanged.
        monkeypatch.setattr(
            rng_module, "_WORDS_CACHE_MAX", len(rng_module._WORDS_CACHE)
        )
        capped = RandomStream(seed, "memo-capped")
        assert (seed, "memo-capped") not in rng_module._WORDS_CACHE
        assert capped._gen.bit_generator.state == self._reference_state(
            seed, "memo-capped"
        )

    def test_memoized_stream_draws_identically(self):
        # Second construction hits the state cache; the draw sequence
        # must be indistinguishable from a cold derivation.
        cold = RandomStream(991, "memo-check")
        warm = RandomStream(991, "memo-check")
        assert [cold.uniform() for _ in range(8)] == [
            warm.uniform() for _ in range(8)
        ]

    def test_memoized_streams_do_not_share_state(self):
        a = RandomStream(992, "memo-iso")
        b = RandomStream(992, "memo-iso")
        a.uniform()  # advancing one must not advance the other
        assert b.uniform() == RandomStream(992, "memo-iso").uniform()
