"""Property suite: fused monarch reads ≡ generator reads, adversarially.

The fused continuation protocol on ``MonarchReader`` inlines resident
fast-tier hits and replays everything else through the legacy generator
(:class:`repro.framework.io_layer._LegacyDrive`).  These properties attack
the equivalence where the routing is hardest: randomized fault plans
(tier outages with and without recovery, transient read/write fault
windows on any mount — driving quarantine, re-admission, fallback
routing and retry exhaustion) and tenancy-capped multi-job mixes
(arbiter ledgers, per-job stats, namespace enforcement).

The reference side forces every reader to decline the protocol, so the
pipeline runs the readers' generator ``open``/``pread`` through the
trampoline for every read; a spy checks that it did.  For every drawn
scenario both sides must agree on *everything* observable: the run
result repr (epoch times, utilizations, op counts, down to float repr;
only the fusion-miss tally differs by construction), the middleware's
full published metrics registry — tier stats, placement ledger, health
counters, arbiter ledger, per-job stats — and the dispatch-slot count;
multi-job runs also compare their whole RunReport record repr.

Seeded and derandomized like the placement suites, so a failing example
reproduces bit-for-bit.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.framework.io_layer as io_layer
from repro.core.middleware import MonarchReader
from repro.data.imagenet import IMAGENET_100G, scaled
from repro.distributed.peercache import PeerCacheReader
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.multi_scenarios import JobPlan, build_multi_run, run_multi_once
from repro.experiments.runner import run_once
from repro.experiments.scenarios import build_run
from repro.faults import FaultPlan, TierDown, TransientFaults
from repro.framework.io_layer import PosixReader
from repro.framework.pipeline import EpochPipeline

pytestmark = [pytest.mark.hypothesis_heavy]

SCALE = 1 / 4096  # ~220 samples; one run completes in well under a second
SSD_MOUNT = "/mnt/ssd"
PFS_MOUNT = "/mnt/pfs"
TINY = scaled(IMAGENET_100G, 0.1)


# -- strategies --------------------------------------------------------------

@st.composite
def fault_events(draw):
    """A small schedule of faults for one mount: outages and windows."""
    events = []
    if draw(st.booleans()):
        at = draw(st.floats(min_value=0.0, max_value=0.3))
        recover = draw(
            st.one_of(st.none(), st.floats(min_value=0.05, max_value=0.4))
        )
        events.append(
            TierDown(at=at, recover_at=None if recover is None else at + recover)
        )
    n_windows = draw(st.integers(min_value=0, max_value=2))
    for _ in range(n_windows):
        start = draw(st.floats(min_value=0.0, max_value=0.4))
        length = draw(st.floats(min_value=0.01, max_value=0.3))
        events.append(
            TransientFaults(
                start=start,
                end=start + length,
                read_p=draw(st.floats(min_value=0.0, max_value=0.9)),
                write_p=draw(st.floats(min_value=0.0, max_value=0.9)),
            )
        )
    return tuple(events)


@st.composite
def fault_plans(draw):
    """A plan over the monarch mounts (possibly empty on either)."""
    return FaultPlan({
        SSD_MOUNT: draw(fault_events()),
        PFS_MOUNT: draw(fault_events()),
    })


# -- helpers -----------------------------------------------------------------

def _generator_reads(fn):
    """Run ``fn`` with every reader declining the continuation protocol,
    and check that every epoch pipeline that started really opened its
    shards through the trampoline (a run may crash before epoch 1)."""
    driven = []
    pipelines = []
    real_drive_start = io_layer._LegacyDrive.start
    real_pipe_start = EpochPipeline.start

    def spying_drive_start(self, gen, cb, take=None):
        driven.append(gen.__name__)
        real_drive_start(self, gen, cb, take)

    def spying_pipe_start(self):
        pipelines.append(self)
        real_pipe_start(self)

    def decline(self, paths):
        return False

    with mock.patch.object(io_layer._LegacyDrive, "start", spying_drive_start), \
            mock.patch.object(EpochPipeline, "start", spying_pipe_start), \
            mock.patch.object(PosixReader, "fused_capable", decline), \
            mock.patch.object(MonarchReader, "fused_capable", decline), \
            mock.patch.object(PeerCacheReader, "fused_capable", decline):
        out = fn()
    assert driven.count("_open_gen") >= len(pipelines), (
        "pipeline reads bypassed the trampoline — comparison is vacuous"
    )
    return out


def _stripped(result):
    """``repr`` of a train result with the fusion-miss tally cleared."""
    return repr(replace(result, fusion_misses={}))


def _monarch_observables(fault_plan, seed):
    """(outcome, published counters, dispatch slots) of one faulted
    monarch run.

    Some drawn plans are fatal by design (a permanent PFS outage kills
    the training job on *both* sides); crash parity — same exception,
    same message, same sim time — is part of the equivalence property,
    so a crash becomes an outcome string instead of a test error.
    """
    handle = build_run(
        setup="monarch",
        model_name="lenet",
        dataset=IMAGENET_100G,
        calib=DEFAULT_CALIBRATION,
        scale=SCALE,
        seed=seed,
        fault_plan=fault_plan,
    )
    try:
        outcome = _stripped(handle.execute())
    except Exception as err:  # noqa: BLE001 - crash parity is the property
        outcome = f"raised {type(err).__name__}: {err} at t={handle.sim.now!r}"
    assert handle.monarch is not None
    counters = dict(handle.monarch.publish_metrics().counters)
    return outcome, counters, handle.sim.events_processed


# -- properties --------------------------------------------------------------

@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(plan=fault_plans(), seed=st.integers(min_value=0, max_value=2**16))
def test_faulted_monarch_fused_matches_generator(plan, seed):
    """Records, tier/health stats and placement ledgers are identical
    under arbitrary outage + transient-fault schedules."""
    fused = _monarch_observables(plan, seed)
    generator = _generator_reads(lambda: _monarch_observables(plan, seed))
    assert fused == generator


@settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    share_a=st.floats(min_value=0.1, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_tenancy_capped_fused_matches_generator(share_a, seed):
    """Multi-job runs (tenancy-enforced reads, fair-share arbiter) agree:
    every fused read in a job namespace replays the generator, so the
    arbiter ledger and per-job stats can't drift by a single byte."""
    plans = [
        JobPlan("a", "lenet", TINY, share=share_a),
        JobPlan("b", "lenet", TINY, share=1.0 - share_a),
    ]

    def record():
        # The whole multi-job RunReport: the timestamped event stream,
        # traced backend cross-checks, per-job epoch tier deltas.
        return repr(run_multi_once(plans, scale=SCALE, seed=seed, report=True))

    def observe():
        handle = build_multi_run(plans, DEFAULT_CALIBRATION, scale=SCALE,
                                 seed=seed, telemetry=True)
        results = handle.execute()
        return (
            {job: _stripped(r) for job, r in results.items()},
            dict(handle.monarch.publish_metrics().counters),
            handle.sim.events_processed,
        )

    assert record() == _generator_reads(record)
    assert observe() == _generator_reads(observe)


@settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_quarantine_readmit_cycle_fused_matches_generator(seed):
    """The targeted worst case: an SSD outage mid-epoch-1 with recovery —
    quarantine, fallback routing and probe reads all happen while fused
    reads are in flight."""
    plan = FaultPlan({
        SSD_MOUNT: (
            TierDown(at=0.03, recover_at=0.12),
            TransientFaults(start=0.2, end=0.3, read_p=0.5),
        ),
    })
    fused = _monarch_observables(plan, seed)
    generator = _generator_reads(lambda: _monarch_observables(plan, seed))
    assert fused == generator


def test_fused_records_match_via_run_once():
    """End-to-end un-scaled records (the figure inputs) agree too —
    single example, no hypothesis, as a cheap tier-1 smoke anchor."""
    plan = FaultPlan({
        SSD_MOUNT: (
            TierDown(at=0.05, recover_at=0.3),
            TransientFaults(start=0.4, end=0.6, read_p=0.4, write_p=0.4),
        ),
    })
    def record():
        return repr(run_once(
            "monarch", "lenet", IMAGENET_100G, scale=SCALE, seed=11, fault_plan=plan
        ))

    assert record() == _generator_reads(record)
