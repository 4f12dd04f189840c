"""Deterministic wireless fault injection for :class:`~repro.net.Channel`.

The seed model treats the air interface as a perfect medium: every
transmission reaches every listener intact.  Real wireless cells lose and
corrupt frames — and the paper's AFW/AAW schemes are precisely *recovery*
machinery for clients that missed invalidation reports.  This module
supplies the adversary: a :class:`FaultModel` attached to a channel that
can

* **drop** a delivery with a per-kind probability (the frame still burns
  airtime — receivers simply never decode it);
* **corrupt** a delivery via a bit-error rate (the frame arrives flagged
  ``corrupted``; receivers must treat it as undecodable);
* produce **bursty** loss with a two-state Gilbert–Elliott chain per
  receiver (a client driving through a fade misses several consecutive
  frames, not independent coin flips).

Every decision draws from one dedicated named stream
(:class:`~repro.des.rng.RandomStream`), so runs stay reproducible and the
fault stream never perturbs the model's other streams.  The model owns
that stream and draws its uniforms in blocks; the sequence of uniforms
its trials consume is the one per-trial scalar draws would take.  A
:class:`FaultConfig` whose probabilities are all zero never draws at all
and is behaviourally identical to no fault model (the golden differential
test in ``tests/sim/test_faults.py`` pins this).

Faults are judged *per receiver* at delivery time: on a broadcast medium
each listener decodes (or fails to decode) independently, which is what
lets one client miss a report the rest of the cell heard.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from .messages import Message, MessageKind


class Fate(enum.Enum):
    """Outcome of judging one (message, receiver) delivery."""

    DELIVER = "deliver"
    DROP = "drop"
    CORRUPT = "corrupt"


@dataclass(frozen=True)
class FaultConfig:
    """Declarative description of a channel's impairments.

    Attributes
    ----------
    drop_prob:
        Independent per-delivery loss probability while the link is in
        the *good* state.
    drop_prob_by_kind:
        Per-:class:`MessageKind` overrides of ``drop_prob`` (e.g. drop
        only invalidation reports).
    bit_error_rate:
        Per-bit corruption probability; a frame of ``n`` bits survives
        intact with probability ``(1 - ber) ** n``, so large data items
        are hit much harder than small control frames — as on real links.
    ge_good_to_bad / ge_bad_to_good:
        Per-delivery transition probabilities of the Gilbert–Elliott
        chain.  ``ge_good_to_bad = 0`` (the default) disables the chain.
    ge_bad_drop_prob:
        Loss probability while a receiver's chain is in the *bad* state
        (replaces the good-state ``drop_prob``).
    """

    drop_prob: float = 0.0
    drop_prob_by_kind: Optional[Mapping[MessageKind, float]] = None
    bit_error_rate: float = 0.0
    ge_good_to_bad: float = 0.0
    ge_bad_to_good: float = 1.0
    ge_bad_drop_prob: float = 1.0

    def __post_init__(self):
        for name in (
            "drop_prob",
            "bit_error_rate",
            "ge_good_to_bad",
            "ge_bad_to_good",
            "ge_bad_drop_prob",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
        if self.drop_prob_by_kind is not None:
            for kind, prob in self.drop_prob_by_kind.items():
                if not isinstance(kind, MessageKind):
                    raise ValueError(
                        f"drop_prob_by_kind key {kind!r} is not a MessageKind"
                    )
                if not 0.0 <= prob <= 1.0:
                    raise ValueError(f"drop_prob_by_kind[{kind}]={prob} outside [0, 1]")
        if self.ge_good_to_bad > 0.0 and self.ge_bad_to_good <= 0.0:
            raise ValueError("ge_bad_to_good must be positive when bursts are enabled")

    @property
    def is_null(self) -> bool:
        """True when this config can never drop or corrupt anything."""
        if self.drop_prob > 0.0 or self.bit_error_rate > 0.0:
            return False
        if self.drop_prob_by_kind and any(
            p > 0.0 for p in self.drop_prob_by_kind.values()
        ):
            return False
        if self.ge_good_to_bad > 0.0 and self.ge_bad_drop_prob > 0.0:
            return False
        return True

    def drop_prob_for(self, kind: MessageKind) -> float:
        """Good-state loss probability for one message kind."""
        if self.drop_prob_by_kind is not None:
            return self.drop_prob_by_kind.get(kind, self.drop_prob)
        return self.drop_prob

    def corrupt_prob_for(self, size_bits: float) -> float:
        """Probability a frame of *size_bits* arrives with any bit flipped."""
        if self.bit_error_rate <= 0.0 or size_bits <= 0.0:
            return 0.0
        if self.bit_error_rate >= 1.0:
            return 1.0
        # 1 - (1 - ber)^n, computed stably for tiny ber and huge n.
        return -math.expm1(size_bits * math.log1p(-self.bit_error_rate))


@dataclass
class FaultStats:
    """Per-channel fault telemetry (per receiver-delivery events)."""

    judged: int = 0
    dropped: int = 0
    corrupted: int = 0
    dropped_bits: float = 0.0
    corrupted_bits: float = 0.0
    #: Good->bad transitions across all receiver chains (burst onsets).
    bursts: int = 0
    dropped_by_kind: Dict[MessageKind, int] = field(default_factory=dict)
    corrupted_by_kind: Dict[MessageKind, int] = field(default_factory=dict)

    @property
    def intact(self) -> int:
        """Deliveries that survived undamaged."""
        return self.judged - self.dropped - self.corrupted

    @property
    def goodput_ratio(self) -> float:
        """Fraction of judged deliveries that arrived intact."""
        return self.intact / self.judged if self.judged else 1.0


#: Uniforms a model draws per refill (more when one message needs more).
_BLOCK = 512


class FaultModel:
    """Judge of each (message, receiver) delivery on one channel.

    Holds the per-receiver Gilbert–Elliott chain states and the fault
    telemetry.  One instance per channel; the channel calls
    :meth:`judge` once per delivered message for its dispatched
    receivers, and :meth:`fate` judges a single delivery.

    The model owns *stream*: it draws uniforms ahead in blocks
    (:meth:`~repro.des.rng.RandomStream.uniform_block`) and serves every
    Bernoulli trial from a cursor into the block, so the stream must
    not be shared with any other consumer.  Each trial is ``u < p`` on
    the next uniform — the Gilbert–Elliott transition, then the drop,
    then the corruption, skipping a trial whose probability is zero
    (transitions always draw) — which is exactly the sequence of scalar
    draws one ``bernoulli`` call per trial would consume.
    """

    __slots__ = (
        "config",
        "stream",
        "stats",
        "_bad",
        "_null",
        "_bursty",
        "_block",
        "_pos",
    )

    def __init__(self, config: FaultConfig, stream):
        self.config = config
        self.stream = stream
        self.stats = FaultStats()
        #: receiver key -> True while that receiver's chain is in *bad*.
        self._bad: Dict[int, bool] = {}
        self._null = config.is_null
        self._bursty = config.ge_good_to_bad > 0.0
        #: Uniforms drawn ahead; ``_block[_pos:]`` are not yet consumed.
        self._block: List[float] = []
        self._pos = 0

    def __repr__(self):
        return f"<FaultModel null={self._null} stats={self.stats}>"

    @property
    def is_null(self) -> bool:
        """True when the model can never damage a delivery (no RNG use)."""
        return self._null

    def in_bad_state(self, receiver_key: int) -> bool:
        """Whether *receiver_key*'s Gilbert–Elliott chain is in *bad*."""
        return self._bad.get(receiver_key, False)

    def fate(self, message: Message, receiver_key: int) -> Fate:
        """Judge one delivery; updates chain state and telemetry."""
        return self.judge(message, (receiver_key,))[0]

    def judge(self, message: Message, keys: Sequence[Optional[int]]) -> List[Fate]:
        """Judge one message for each receiver key in *keys*, in order.

        Returns the fates aligned with *keys*.  A ``None`` key stands
        for a wired receiver: it is delivered without a judgement or a
        draw.  The per-message probabilities are computed once, so each
        trial costs one list read and one compare.
        """
        if self._null:
            return [Fate.DELIVER] * len(keys)
        cfg = self.config
        kind = message.kind
        size_bits = message.size_bits
        drop_prob = cfg.drop_prob_for(kind)
        corrupt_prob = cfg.corrupt_prob_for(size_bits)
        bursty = self._bursty
        bad_by_key = self._bad
        to_bad = cfg.ge_good_to_bad
        to_good = cfg.ge_bad_to_good
        bad_drop_prob = cfg.ge_bad_drop_prob
        # Top the block up front with the message's worst case, so the
        # loop below never checks for exhaustion.
        per_receiver = 3 if bursty else (drop_prob > 0.0) + (corrupt_prob > 0.0)
        need = per_receiver * len(keys)
        block = self._block
        pos = self._pos
        if len(block) - pos < need:
            block = self._block = block[pos:] + self.stream.uniform_block(
                max(_BLOCK, need)
            )
            pos = 0
        stats = self.stats
        judged = bursts = dropped = corrupted = 0
        dropped_bits = stats.dropped_bits
        corrupted_bits = stats.corrupted_bits
        deliver = Fate.DELIVER
        fates: List[Fate] = []
        append = fates.append
        for key in keys:
            if key is None:
                append(deliver)
                continue
            judged += 1
            p = drop_prob
            if bursty:
                u = block[pos]
                pos += 1
                bad = bad_by_key.get(key, False)
                if bad:
                    if u < to_good:
                        bad = False
                elif u < to_bad:
                    bad = True
                    bursts += 1
                bad_by_key[key] = bad
                if bad:
                    p = bad_drop_prob
            if p > 0.0:
                u = block[pos]
                pos += 1
                if u < p:
                    dropped += 1
                    dropped_bits += size_bits
                    append(Fate.DROP)
                    continue
            if corrupt_prob > 0.0:
                u = block[pos]
                pos += 1
                if u < corrupt_prob:
                    corrupted += 1
                    corrupted_bits += size_bits
                    append(Fate.CORRUPT)
                    continue
            append(deliver)
        self._pos = pos
        stats.judged += judged
        stats.bursts += bursts
        if dropped:
            stats.dropped += dropped
            stats.dropped_bits = dropped_bits
            by_kind = stats.dropped_by_kind
            by_kind[kind] = by_kind.get(kind, 0) + dropped
        if corrupted:
            stats.corrupted += corrupted
            stats.corrupted_bits = corrupted_bits
            by_kind = stats.corrupted_by_kind
            by_kind[kind] = by_kind.get(kind, 0) + corrupted
        return fates
