"""Golden pins for lossy runs: the wireless fault path end to end.

``test_kernel_golden.py`` pins the pristine medium only.  This suite
pins what a faulted cell simulates — traffic, cache behaviour, recovery
counters, latency moments — plus every channel's full
:class:`~repro.net.FaultStats` (judged, dropped, corrupted, bits,
per-kind tallies and burst onsets) for the five paper schemes under two
impairment profiles:

* ``iid``: independent downlink loss plus a bit-error rate;
* ``bursty``: a Gilbert–Elliott downlink with a per-kind drop override
  and bit errors, plus a lossy uplink driving the timeout/retry layer.

Any change to how fault fates are drawn or judged (draw order, draw
count, short-circuits, which receivers are judged) moves these numbers.
A change that only makes judging cheaper must reproduce them
bit-for-bit.

Regenerate (only for an intentional, explained re-pin)::

    PYTHONPATH=src:tests python -m sim.test_fault_golden
"""

import pytest

from repro.net import FaultConfig, MessageKind
from repro.sim import SystemParams, UNIFORM
from repro.sim.model import SimulationModel

BASE = SystemParams(
    simulation_time=3000.0,
    n_clients=10,
    db_size=400,
    buffer_fraction=0.1,
    think_time_mean=40.0,
    update_interarrival_mean=80.0,
    disconnect_prob=0.3,
    disconnect_time_mean=300.0,
    seed=2468,
)

CONFIGS = {
    "iid": BASE.with_(
        downlink_faults=FaultConfig(drop_prob=0.02, bit_error_rate=1e-6),
    ),
    "bursty": BASE.with_(
        downlink_faults=FaultConfig(
            drop_prob=0.01,
            drop_prob_by_kind={MessageKind.INVALIDATION_REPORT: 0.05},
            bit_error_rate=2e-7,
            ge_good_to_bad=0.05,
            ge_bad_to_good=0.3,
            ge_bad_drop_prob=0.8,
        ),
        uplink_faults=FaultConfig(drop_prob=0.05, bit_error_rate=1e-5),
        uplink_timeout=150.0,
    ),
}

SCHEMES = ("aaw", "afw", "bs", "checking", "ts")

#: Counters pinned per run, in tuple order (a fixed list, not the whole
#: raw dict, so added zero-valued keys cannot break the pin).
OBSERVED = (
    "queries.generated",
    "queries.answered",
    "cache.hits",
    "cache.misses",
    "cache.full_drops",
    "cache.stale_hits",
    "uplink.validation_bits",
    "uplink.request_bits",
    "downlink.ir_bits",
    "downlink.data_bits",
    "downlink.validity_bits",
    "client.disconnections",
    "client.retries",
    "client.fetch_timeouts",
    "client.fetch_failures",
    "client.validation_timeouts",
    "client.ir_gaps",
    "client.ir_corrupted",
    "adaptive.tlb_uploads",
    "checking.requests",
    "data.coalesced",
    "query.latency.count",
    "query.latency.mean",
    "query.latency.max",
    "downlink.utilization",
    "uplink.utilization",
    "downlink.bits_delivered",
    "uplink.bits_delivered",
)


def _fault_stats(channel):
    """A channel's FaultStats as a plain, order-stable tuple."""
    if channel.faults is None:
        return None
    s = channel.faults.stats
    return (
        s.judged,
        s.dropped,
        s.corrupted,
        s.dropped_bits,
        s.corrupted_bits,
        s.bursts,
        tuple(sorted((k.value, n) for k, n in s.dropped_by_kind.items())),
        tuple(sorted((k.value, n) for k, n in s.corrupted_by_kind.items())),
    )


def observe(config, scheme):
    model = SimulationModel(CONFIGS[config], UNIFORM, scheme)
    result = model.run()
    counters = tuple(result.raw.get(name, 0.0) for name in OBSERVED)
    return counters, _fault_stats(model.downlink), _fault_stats(model.uplink)


GOLDEN = {
    ('bursty', 'aaw'): ((199.0, 193.0, 14.0, 182.0, 2.0, 0.0, 640.0, 847872.0, 91686.0, 12386304.0, 0.0, 56.0, 25.0, 26.0, 1.0, 0.0, 140.0, 0.0, 20.0, 0.0, 2.0, 193, 54.38179462677399, 2385.192433031247, 0.4158945333333365, 0.028283733333331392, 12476836.0, 848512.0), (1051, 164, 1, 881682.0, 65536.0, 47, (('data_item', 12), ('ir', 152)), (('data_item', 1),)), (227, 8, 9, 28704.0, 36864.0, 0, (('data_request', 7), ('tlb_upload', 1)), (('data_request', 9),))),
    ('bursty', 'afw'): ((201.0, 196.0, 14.0, 186.0, 1.0, 0.0, 608.0, 864256.0, 96054.0, 12582912.0, 0.0, 58.0, 25.0, 26.0, 1.0, 0.0, 141.0, 0.0, 19.0, 0.0, 2.0, 196, 54.067736653459825, 2385.192433031247, 0.4225937333333366, 0.028828799999997965, 12677812.0, 864864.0), (1058, 161, 1, 886233.0, 65536.0, 45, (('data_item', 12), ('ir', 149)), (('data_item', 1),)), (230, 9, 9, 32800.0, 36864.0, 0, (('data_request', 8), ('tlb_upload', 1)), (('data_request', 9),))),
    ('bursty', 'bs'): ((183.0, 180.0, 13.0, 169.0, 0.0, 0.0, 0.0, 827392.0, 173100.0, 12255232.0, 0.0, 53.0, 33.0, 33.0, 0.0, 0.0, 112.0, 0.0, 0.0, 0.0, 0.0, 180, 54.865174368142554, 1224.2425387878927, 0.4139471727249998, 0.02757973333333093, 12361642.0, 827392.0), (1031, 130, 6, 986986.0, 393216.0, 40, (('data_item', 13), ('ir', 117)), (('data_item', 6),)), (202, 7, 8, 28672.0, 32768.0, 0, (('data_request', 7),), (('data_request', 8),))),
    ('bursty', 'checking'): ((192.0, 190.0, 13.0, 177.0, 0.0, 0.0, 33538.0, 864256.0, 85460.0, 12713984.0, 778.0, 55.0, 36.0, 34.0, 0.0, 2.0, 120.0, 0.0, 0.0, 22.0, 0.0, 190, 58.12145216575947, 1175.7574589970666, 0.42665926666666953, 0.029926466666664046, 12799778.0, 897794.0), (1043, 139, 2, 1061683.0, 131072.0, 39, (('data_item', 15), ('ir', 122), ('validity_report', 2)), (('data_item', 2),)), (233, 9, 9, 34408.0, 36864.0, 0, (('check_request', 1), ('data_request', 8)), (('data_request', 9),))),
    ('bursty', 'ts'): ((201.0, 198.0, 7.0, 192.0, 22.0, 0.0, 0.0, 917504.0, 85460.0, 13565952.0, 0.0, 60.0, 32.0, 32.0, 0.0, 0.0, 125.0, 0.0, 0.0, 0.0, 0.0, 198, 52.89704748976125, 1224.1510387878927, 0.4550322666666696, 0.030583466666663933, 13650968.0, 917504.0), (1018, 147, 0, 1123755.0, 0.0, 34, (('data_item', 16), ('ir', 131)), ()), (224, 8, 9, 32768.0, 36864.0, 0, (('data_request', 8),), (('data_request', 9),))),
    ('iid', 'aaw'): ((115.0, 107.0, 9.0, 105.0, 0.0, 0.0, 480.0, 430080.0, 91153.0, 6815744.0, 0.0, 35.0, 0.0, 0.0, 0.0, 0.0, 14.0, 1.0, 15.0, 0.0, 1.0, 107, 22.1241141643149, 51.31410332578298, 0.2302151000000008, 0.014351999999999357, 6906453.0, 430560.0), (1096, 16, 5, 203718.0, 262752.0, 0, (('data_item', 3), ('ir', 13)), (('data_item', 4), ('ir', 1))), None),
    ('iid', 'afw'): ((107.0, 99.0, 11.0, 96.0, 0.0, 0.0, 352.0, 393216.0, 91630.0, 6225920.0, 0.0, 31.0, 0.0, 0.0, 0.0, 0.0, 13.0, 0.0, 11.0, 0.0, 1.0, 99, 20.41558972823684, 48.14074691514395, 0.21057020000000012, 0.013118933333332684, 6317106.0, 393568.0), (1159, 16, 5, 204756.0, 327680.0, 0, (('data_item', 3), ('ir', 13)), (('data_item', 5),)), None),
    ('iid', 'bs'): ((114.0, 104.0, 9.0, 105.0, 0.0, 0.0, 0.0, 430080.0, 173100.0, 6881280.0, 0.0, 30.0, 0.0, 0.0, 0.0, 0.0, 15.0, 1.0, 0.0, 0.0, 0.0, 104, 18.748128890117624, 45.25921576473252, 0.2351075333333341, 0.014335999999999035, 7053226.0, 430080.0), (1230, 20, 8, 216226.0, 459906.0, 0, (('data_item', 3), ('ir', 17)), (('data_item', 7), ('ir', 1))), None),
    ('iid', 'checking'): ((118.0, 111.0, 10.0, 108.0, 0.0, 0.0, 25830.0, 442368.0, 85460.0, 7077888.0, 630.0, 37.0, 0.0, 0.0, 0.0, 0.0, 12.0, 1.0, 0.0, 17.0, 0.0, 111, 18.84507286976794, 36.437560591339405, 0.23878446666666756, 0.015606599999998772, 7163534.0, 468198.0), (1152, 16, 5, 203528.0, 263080.0, 0, (('data_item', 3), ('ir', 13)), (('data_item', 4), ('ir', 1))), None),
    ('iid', 'ts'): ((102.0, 92.0, 5.0, 97.0, 14.0, 0.0, 0.0, 397312.0, 85460.0, 6356992.0, 0.0, 29.0, 0.0, 0.0, 0.0, 0.0, 15.0, 1.0, 0.0, 0.0, 0.0, 92, 19.307170174857628, 39.58578066709708, 0.21473360000000036, 0.013243733333332489, 6442008.0, 397312.0), (1218, 17, 9, 138921.0, 524609.0, 0, (('data_item', 2), ('ir', 15)), (('data_item', 8), ('ir', 1))), None),
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_lossy_run_matches_pins(config, scheme):
    assert observe(config, scheme) == GOLDEN[config, scheme]


if __name__ == "__main__":
    for config in sorted(CONFIGS):
        for scheme in SCHEMES:
            print(f"    ({config!r}, {scheme!r}): {observe(config, scheme)!r},")
