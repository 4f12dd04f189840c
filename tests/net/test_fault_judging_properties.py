"""Block-drawn fault judging equals one scalar Bernoulli draw per trial.

:class:`~repro.net.FaultModel` serves every trial from uniforms drawn in
blocks.  This property test replays random fault configs and random
message x receiver sequences through both of its entry points
(:meth:`~repro.net.FaultModel.judge` per message, and
:meth:`~repro.net.FaultModel.fate` per delivery) and through a
reference judge that makes one ``RandomStream.bernoulli`` call per
trial on a twin stream.  Fates, every :class:`~repro.net.FaultStats`
field and the number of uniforms consumed must all agree.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.des import RandomStream
from repro.net import (
    BROADCAST,
    Fate,
    FaultConfig,
    FaultModel,
    FaultStats,
    Message,
    MessageKind,
    SERVER_ID,
)

KINDS = list(MessageKind)


class _CountingStream:
    """A RandomStream proxy that counts the uniforms handed out."""

    def __init__(self, stream):
        self.stream = stream
        self.drawn = 0

    def uniform_block(self, n):
        self.drawn += n
        return self.stream.uniform_block(n)

    def bernoulli(self, p):
        self.drawn += 1
        return self.stream.bernoulli(p)


class _ReferenceJudge:
    """The scalar judge: one ``bernoulli`` call per trial, in trial order."""

    def __init__(self, config, stream):
        self.config = config
        self.stream = stream
        self.stats = FaultStats()
        self.bad = {}

    def fate(self, message, key):
        cfg = self.config
        stats = self.stats
        if cfg.is_null:
            return Fate.DELIVER
        stats.judged += 1
        drop_prob = cfg.drop_prob_for(message.kind)
        if cfg.ge_good_to_bad > 0.0:
            bad = self.bad.get(key, False)
            if bad:
                if self.stream.bernoulli(cfg.ge_bad_to_good):
                    bad = False
            elif self.stream.bernoulli(cfg.ge_good_to_bad):
                bad = True
                stats.bursts += 1
            self.bad[key] = bad
            if bad:
                drop_prob = cfg.ge_bad_drop_prob
        if drop_prob > 0.0 and self.stream.bernoulli(drop_prob):
            stats.dropped += 1
            stats.dropped_bits += message.size_bits
            by_kind = stats.dropped_by_kind
            by_kind[message.kind] = by_kind.get(message.kind, 0) + 1
            return Fate.DROP
        corrupt_prob = cfg.corrupt_prob_for(message.size_bits)
        if corrupt_prob > 0.0 and self.stream.bernoulli(corrupt_prob):
            stats.corrupted += 1
            stats.corrupted_bits += message.size_bits
            by_kind = stats.corrupted_by_kind
            by_kind[message.kind] = by_kind.get(message.kind, 0) + 1
            return Fate.CORRUPT
        return Fate.DELIVER


prob = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def fault_configs(draw):
    bursty = draw(st.booleans())
    return FaultConfig(
        drop_prob=draw(prob),
        drop_prob_by_kind=draw(
            st.one_of(st.none(), st.dictionaries(st.sampled_from(KINDS), prob))
        ),
        bit_error_rate=draw(
            st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-9, 1e-3))
        ),
        ge_good_to_bad=draw(st.floats(0.0, 1.0)) if bursty else 0.0,
        ge_bad_to_good=draw(st.floats(1e-6, 1.0)),
        ge_bad_drop_prob=draw(prob),
    )


messages = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        # Fractional sizes exercise the order of the float bit sums.
        st.one_of(st.integers(0, 70_000), st.floats(0.0, 70_000.0)),
        # Receiver keys in dispatch order; None marks a wired receiver.
        st.lists(st.one_of(st.none(), st.integers(0, 6)), max_size=40),
        # Entry point: True judges the whole message, False one by one.
        st.booleans(),
    ),
    max_size=30,
)


@given(config=fault_configs(), sequence=messages, seed=st.integers(0, 2**16))
def test_block_judging_matches_scalar_reference(config, sequence, seed):
    model_stream = _CountingStream(RandomStream(seed, "faults/prop"))
    twin_stream = _CountingStream(RandomStream(seed, "faults/prop"))
    model = FaultModel(config, model_stream)
    reference = _ReferenceJudge(config, twin_stream)
    for kind, size, keys, per_message in sequence:
        message = Message(
            kind=kind, size_bits=size, src=SERVER_ID, dest=BROADCAST, payload=None
        )
        if per_message:
            fates = model.judge(message, keys)
        else:
            fates = [
                Fate.DELIVER if key is None else model.fate(message, key)
                for key in keys
            ]
        expected = [
            Fate.DELIVER if key is None else reference.fate(message, key)
            for key in keys
        ]
        assert fates == expected
    assert model.stats == reference.stats
    for key in range(7):
        assert model.in_bad_state(key) == reference.bad.get(key, False)
    # Uniforms drawn but not yet consumed sit in the model's block.
    drawn_ahead = len(model._block) - model._pos
    assert model_stream.drawn - drawn_ahead == twin_stream.drawn
    if config.is_null:
        assert model_stream.drawn == 0
