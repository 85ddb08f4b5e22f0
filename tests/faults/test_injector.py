"""FaultInjector proxies: schedule evaluation at the backend layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultyFileSystem,
    IOFaultError,
    LatencySpike,
    TierDown,
    TierFailedError,
    TransientFaults,
)
from repro.storage.base import NoSpaceError
from tests.conftest import drive

MOUNT = "/mnt/ssd"


def make_wrapped(sim, local_fs, events, seed=0):
    plan = FaultPlan({MOUNT: events})
    injector = FaultInjector(sim, plan, np.random.default_rng(seed))
    return injector, injector.wrap_fs(MOUNT, local_fs)


def put_file(sim, fs, path, size):
    def job():
        handle = yield from fs.open(path, "w")
        yield from fs.pwrite(handle, 0, size)
        return handle

    return drive(sim, job())


class TestWrapping:
    def test_unplanned_mount_is_not_wrapped(self, sim, local_fs):
        injector, wrapped = make_wrapped(sim, local_fs, [TierDown(at=1.0)])
        assert injector.wrap_fs("/mnt/other", local_fs) is local_fs
        assert isinstance(wrapped, FaultyFileSystem)
        assert wrapped.inner is local_fs

    def test_untimed_ops_delegate(self, sim, local_fs):
        _, wrapped = make_wrapped(sim, local_fs, [TierDown(at=0.0)])
        # The tier is already down, but bookkeeping still passes through.
        local_fs.add_file("/f", 100)
        assert wrapped.exists("/f")
        assert wrapped.file_size("/f") == 100
        assert wrapped.used_bytes == 100
        wrapped.unlink("/f")  # cleanup must never fault
        assert not local_fs.exists("/f")

    def test_open_rebinds_handle_to_proxy(self, sim, local_fs):
        _, wrapped = make_wrapped(sim, local_fs, [TierDown(at=1e9)])
        handle = put_file(sim, wrapped, "/f", 64)
        # Follow-up I/O routed via handle.fs must not tunnel past the proxy.
        assert handle.fs is wrapped


class TestTierDown:
    def test_down_raises_with_zero_sim_time(self, sim, local_fs):
        _, wrapped = make_wrapped(sim, local_fs, [TierDown(at=0.0)])

        def job():
            yield from wrapped.open("/f", "w")

        before = sim.now
        with pytest.raises(TierFailedError) as exc:
            drive(sim, job())
        assert sim.now == before
        assert exc.value.mount == MOUNT

    def test_recovery_restores_service(self, sim, local_fs):
        _, wrapped = make_wrapped(sim, local_fs, [TierDown(at=0.0, recover_at=5.0)])

        def job():
            yield sim.timeout(5.0)
            handle = yield from wrapped.open("/f", "w")
            n = yield from wrapped.pwrite(handle, 0, 128)
            return n

        assert drive(sim, job()) == 128

    def test_reads_fail_while_down(self, sim, local_fs):
        _, wrapped = make_wrapped(sim, local_fs, [TierDown(at=1.0)])
        handle = put_file(sim, wrapped, "/f", 64)

        def read_after_failure():
            yield sim.timeout(2.0)
            yield from wrapped.pread(handle, 0, 64)

        with pytest.raises(TierFailedError):
            drive(sim, read_after_failure())
        assert wrapped.fault_state.down_rejections >= 1


class TestTransients:
    def test_certain_read_fault_in_window_only(self, sim, local_fs):
        window = TransientFaults(start=1.0, end=2.0, read_p=1.0)
        _, wrapped = make_wrapped(sim, local_fs, [window])
        handle = put_file(sim, wrapped, "/f", 64)  # t < 1: writes unaffected

        def read_at(t):
            def job():
                yield sim.timeout_at(t)
                n = yield from wrapped.pread(handle, 0, 64)
                return n

            return job

        with pytest.raises(IOFaultError) as exc:
            drive(sim, read_at(1.5)())
        assert exc.value.mount == MOUNT
        assert drive(sim, read_at(3.0)()) == 64
        assert wrapped.fault_state.transient_reads == 1

    def test_write_p_does_not_touch_reads(self, sim, local_fs):
        window = TransientFaults(start=0.0, end=10.0, write_p=1.0)
        _, wrapped = make_wrapped(sim, local_fs, [window])
        local_fs.add_file("/f", 64)

        def job():
            handle = yield from wrapped.open("/f")
            n = yield from wrapped.pread(handle, 0, 64)
            return n

        assert drive(sim, job()) == 64

    def test_nospace_error_kind(self, sim, local_fs):
        window = TransientFaults(start=0.0, end=10.0, write_p=1.0, error="nospace")
        _, wrapped = make_wrapped(sim, local_fs, [window])

        def job():
            yield from wrapped.open("/f", "w")

        with pytest.raises(NoSpaceError) as exc:
            drive(sim, job())
        assert exc.value.mount == MOUNT  # type: ignore[attr-defined]

    def test_draws_are_seed_deterministic(self, sim, local_fs):
        # Two injectors with the same seed replay the identical fault
        # sequence over the identical op sequence.
        window = TransientFaults(start=0.0, end=100.0, read_p=0.35)
        outcomes = []
        for _ in range(2):
            _, wrapped = make_wrapped(sim, local_fs, [window], seed=9)
            local_fs.add_file("/g", 64) if not local_fs.exists("/g") else None
            seq = []

            def job(w=wrapped, out=seq):
                handle = None
                for _i in range(30):
                    try:
                        if handle is None:
                            handle = yield from w.open("/g")
                        n = yield from w.pread(handle, 0, 64)
                        out.append(("ok", n))
                    except IOFaultError:
                        out.append(("fault", 0))

            drive(sim, job())
            outcomes.append(seq)
        assert outcomes[0] == outcomes[1]
        assert ("fault", 0) in outcomes[0]  # p=0.35 over 30 ops: some faults
        assert ("ok", 64) in outcomes[0]


class TestLatencySpike:
    def test_pread_stretches_by_multiplier(self, sim, local_fs):
        spike = LatencySpike(start=10.0, end=20.0, multiplier=3.0)
        _, wrapped = make_wrapped(sim, local_fs, [spike])
        handle = put_file(sim, wrapped, "/f", 1 << 20)

        def timed_read(at):
            def job():
                yield sim.timeout_at(at)
                t0 = sim.now
                yield from wrapped.pread(handle, 0, 1 << 20)
                return sim.now - t0

            return drive(sim, job())

        plain = timed_read(1.0)
        spiked = timed_read(12.0)
        assert spiked == pytest.approx(3.0 * plain)

    def test_multiplier_applies_to_writes_and_metadata(self, sim, local_fs):
        spike = LatencySpike(start=0.0, end=100.0, multiplier=2.0)
        _, wrapped = make_wrapped(sim, local_fs, [spike])
        _, plain_fs = make_wrapped(sim, local_fs, [])

        def timed(fs, path):
            def job():
                t0 = sim.now
                handle = yield from fs.open(path, "w")
                yield from fs.pwrite(handle, 0, 4096)
                return sim.now - t0

            return drive(sim, job())

        base = timed(local_fs, "/a")
        doubled = timed(wrapped, "/b")
        assert doubled == pytest.approx(2.0 * base)

    def test_overlapping_spikes_compound(self, sim):
        from repro.faults.injector import TierFaultState

        state = TierFaultState(
            sim,
            MOUNT,
            [
                LatencySpike(start=0.0, end=10.0, multiplier=2.0),
                LatencySpike(start=5.0, end=10.0, multiplier=3.0),
            ],
            np.random.default_rng(0),
        )
        assert state.latency_multiplier(at=1.0) == 2.0
        assert state.latency_multiplier(at=6.0) == 6.0
        assert state.latency_multiplier(at=11.0) == 1.0


class TestFaultyDevice:
    def test_device_wrapper_faults_and_stretches(self, sim, ssd):
        plan = FaultPlan(
            {
                MOUNT: [
                    TierDown(at=100.0),
                    LatencySpike(start=10.0, end=20.0, multiplier=2.0),
                ]
            }
        )
        injector = FaultInjector(sim, plan, np.random.default_rng(0))
        dev = injector.wrap_device(MOUNT, ssd)

        def timed(at, op):
            def job():
                yield sim.timeout_at(at)
                t0 = sim.now
                yield from op()
                return sim.now - t0

            return drive(sim, job())

        plain = timed(0.0, lambda: dev.read(1 << 20))
        spiked = timed(12.0, lambda: dev.read(1 << 20))
        assert spiked == pytest.approx(2.0 * plain)

        def down_job():
            yield sim.timeout_at(101.0)
            yield from dev.write(4096)

        with pytest.raises(TierFailedError):
            drive(sim, down_job())


class TestCounters:
    def test_injector_counter_view(self, sim, local_fs):
        injector, wrapped = make_wrapped(sim, local_fs, [TierDown(at=0.0)])

        def job():
            yield from wrapped.open("/f", "w")

        with pytest.raises(TierFailedError):
            drive(sim, job())
        assert injector.counters() == {
            f"{MOUNT}/transient_reads": 0,
            f"{MOUNT}/transient_writes": 0,
            f"{MOUNT}/down_rejections": 1,
        }
        assert injector.state_for(MOUNT).faults_injected == 1
        assert injector.state_for("/mnt/other") is None
