"""Deterministic, named random-number streams.

Every stochastic component of the simulation (update generator, each
client's query pattern, think times, disconnections, ...) draws from its
own named stream so that

* runs are reproducible given a master seed, and
* changing how often one component draws does not perturb the others
  (common random numbers across scheme comparisons).

Stream seeds are derived from ``sha256(master_seed || name)`` so they do
not depend on creation order.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Sequence, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def _derive_entropy(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


class _SeedWords(ISeedSequence):
    """A seed sequence that replays four precomputed PCG64 seed words.

    ``PCG64(SeedSequence(e))`` seeds itself from exactly
    ``SeedSequence(e).generate_state(4, uint64)``; handing those words
    back through this shim rebuilds the identical generator without
    rerunning the SeedSequence hash.
    """

    __slots__ = ("words",)

    def __init__(self, words: "np.ndarray[Any, Any]") -> None:
        self.words = words

    def generate_state(
        self, n_words: int, dtype: Any = np.uint32
    ) -> "np.ndarray[Any, Any]":
        assert n_words == 4 and dtype is np.uint64, (n_words, dtype)
        return self.words


# PCG64 seed words memoized per (seed, name): deriving them costs ~20us
# (sha256 + SeedSequence), building a PCG64 from cached words ~3us, and
# sweeps re-create the same few hundred streams for every scheme/cell
# run.  Capped so an unbounded seed sweep cannot balloon memory.
_WORDS_CACHE: Dict[Tuple[int, str], "np.ndarray[Any, Any]"] = {}
_WORDS_CACHE_MAX = 4096


def _make_bitgen(seed: int, name: str) -> np.random.PCG64:
    key = (seed, name)
    words = _WORDS_CACHE.get(key)
    if words is None:
        words = np.random.SeedSequence(_derive_entropy(seed, name)).generate_state(
            4, np.uint64
        )
        if len(_WORDS_CACHE) < _WORDS_CACHE_MAX:
            _WORDS_CACHE[key] = words
    return np.random.PCG64(_SeedWords(words))


class RandomStream:
    """A single named stream with the distributions the model needs."""

    __slots__ = ("name", "_gen")

    def __init__(self, seed: int, name: str) -> None:
        self.name = name
        self._gen = np.random.Generator(_make_bitgen(seed, name))

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given *mean* (not rate)."""
        if mean < 0:
            raise ValueError("mean must be non-negative")
        if mean == 0:
            return 0.0
        return float(self._gen.exponential(mean))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform float in ``[low, high)``."""
        return float(self._gen.uniform(low, high))

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return int(self._gen.integers(low, high + 1))

    def bernoulli(self, p: float) -> bool:
        """True with probability *p*."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
        return bool(self._gen.random() < p)

    def uniform_block(self, n: int) -> List[float]:
        """*n* uniforms on ``[0, 1)``, drawn in one call.

        Exactly the values *n* successive :meth:`bernoulli` calls compare
        against, leaving the same generator state, so a consumer may
        batch its trials without changing what it draws.
        """
        block: List[float] = self._gen.random(n).tolist()
        return block

    def bernoulli_mask(self, p: float, n: int) -> "np.ndarray[Any, Any]":
        """*n* independent Bernoulli(*p*) trials as one boolean array."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
        mask: "np.ndarray[Any, Any]" = self._gen.random(n) < p
        return mask

    def poisson_at_least_one(self, mean: float) -> int:
        """A positive integer with the given mean, via 1 + Poisson(mean-1).

        Used for "mean k items per transaction" style parameters where at
        least one item must be drawn.
        """
        if mean < 1:
            raise ValueError("mean must be >= 1")
        return 1 + int(self._gen.poisson(mean - 1.0))

    def choice_without_replacement(
        self, low: int, high: int, k: int
    ) -> "np.ndarray[Any, Any]":
        """*k* distinct integers from ``[low, high]`` inclusive."""
        span = high - low + 1
        if k > span:
            raise ValueError(f"cannot draw {k} distinct values from {span}")
        result: "np.ndarray[Any, Any]" = low + self._gen.choice(
            span, size=k, replace=False
        )
        return result

    def shuffled(
        self, values: Union[Sequence[Any], "np.ndarray[Any, Any]"]
    ) -> "np.ndarray[Any, Any]":
        """A shuffled copy of *values*."""
        arr = np.array(values)
        self._gen.shuffle(arr)
        return arr


class RandomStreams:
    """Factory and cache of named :class:`RandomStream` objects."""

    __slots__ = ("seed", "_streams")

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        """Return the stream for *name*, creating it on first use."""
        try:
            return self._streams[name]
        except KeyError:
            stream = RandomStream(self.seed, name)
            self._streams[name] = stream
            return stream

    def __repr__(self) -> str:
        return f"<RandomStreams seed={self.seed} open={len(self._streams)}>"
