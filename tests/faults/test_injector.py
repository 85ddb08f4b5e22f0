"""FaultInjector proxies: schedule evaluation at the backend layer.

The proxy's read ops come in two forms, generators and the ``*_begin``
continuation protocol.  The read-path cases below run each behaviour in
both forms (the ``stacks`` fixture: one fresh simulator and disk per
form), so an injected fault, a recovery or a latency spike must look the
same whichever form issued the op.
"""

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
from repro.simkernel.core import Event, Simulator
from repro.storage.base import NoSpaceError
from repro.storage.device import SATA_SSD, Device
from repro.storage.localfs import LocalFileSystem
from tests.conftest import drive

MOUNT = "/mnt/ssd"
#: the two forms of a timed read op
FORMS = ("generator", "begin")


@pytest.fixture
def stacks():
    """``(form, sim, local_fs)`` for each form, on independent simulators."""
    out = []
    for form in FORMS:
        sim = Simulator()
        out.append((form, sim, LocalFileSystem(sim, Device(sim, SATA_SSD), 64 << 20)))
    return out


def read_op(form, fs, op, *args):
    """Run ``fs``'s read ``op`` (``"open"`` or ``"pread"``) in ``form``.

    The ``begin`` form issues ``<op>_begin`` and waits for its callback;
    a fault delivered there is raised here, where the generator form
    raises it.
    """
    if form == "generator":
        result = yield from getattr(fs, op)(*args)
        return result
    done = Event(fs.sim)

    def cb(ev):
        if ev.exception is not None:
            done.fail(ev.exception)
        else:
            done.succeed()

    result = getattr(fs, f"{op}_begin")(*args, cb)
    yield done
    return result


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

    def test_open_rebinds_handle_to_proxy(self, stacks):
        for form, sim, local_fs in stacks:
            _, wrapped = make_wrapped(sim, local_fs, [TierDown(at=1e9)])
            handle = put_file(sim, wrapped, "/f", 64)
            # Follow-up I/O routed via handle.fs must not tunnel past the proxy.
            assert handle.fs is wrapped
            assert drive(sim, read_op(form, wrapped, "open", "/f")).fs is wrapped, form


class TestTierDown:
    def test_down_raises_with_zero_sim_time(self, stacks):
        for form, sim, local_fs in stacks:
            _, wrapped = make_wrapped(sim, local_fs, [TierDown(at=0.0)])
            local_fs.add_file("/f", 64)

            def job():
                yield from read_op(form, wrapped, "open", "/f")

            before = sim.now
            with pytest.raises(TierFailedError) as exc:
                drive(sim, job())
            assert sim.now == before, form
            assert exc.value.mount == MOUNT

    def test_recovery_restores_service(self, stacks):
        for form, sim, local_fs in stacks:
            _, wrapped = make_wrapped(sim, local_fs, [TierDown(at=0.0, recover_at=5.0)])
            local_fs.add_file("/f", 128)

            def job():
                yield sim.timeout(5.0)
                handle = yield from read_op(form, wrapped, "open", "/f")
                n = yield from read_op(form, wrapped, "pread", handle, 0, 128)
                return n

            assert drive(sim, job()) == 128, form

    def test_reads_fail_while_down(self, stacks):
        for form, sim, local_fs in stacks:
            _, wrapped = make_wrapped(sim, local_fs, [TierDown(at=1.0)])
            handle = put_file(sim, wrapped, "/f", 64)

            def read_after_failure():
                yield sim.timeout(2.0)
                yield from read_op(form, wrapped, "pread", handle, 0, 64)

            with pytest.raises(TierFailedError):
                drive(sim, read_after_failure())
            assert wrapped.fault_state.down_rejections >= 1, form


class TestTransients:
    def test_certain_read_fault_in_window_only(self, stacks):
        for form, sim, local_fs in stacks:
            window = TransientFaults(start=1.0, end=2.0, read_p=1.0)
            _, wrapped = make_wrapped(sim, local_fs, [window])
            handle = put_file(sim, wrapped, "/f", 64)  # t < 1: writes unaffected

            def read_at(t):
                def job():
                    yield sim.timeout_at(t)
                    n = yield from read_op(form, wrapped, "pread", handle, 0, 64)
                    return n

                return job

            with pytest.raises(IOFaultError) as exc:
                drive(sim, read_at(1.5)())
            assert exc.value.mount == MOUNT
            assert drive(sim, read_at(3.0)()) == 64, form
            assert wrapped.fault_state.transient_reads == 1, form

    def test_write_p_does_not_touch_reads(self, stacks):
        for form, sim, local_fs in stacks:
            window = TransientFaults(start=0.0, end=10.0, write_p=1.0)
            _, wrapped = make_wrapped(sim, local_fs, [window])
            local_fs.add_file("/f", 64)

            def job():
                handle = yield from read_op(form, wrapped, "open", "/f")
                n = yield from read_op(form, wrapped, "pread", handle, 0, 64)
                return n

            assert drive(sim, job()) == 64, form

    def test_nospace_error_kind(self, sim, local_fs):
        window = TransientFaults(start=0.0, end=10.0, write_p=1.0, error="nospace")
        _, wrapped = make_wrapped(sim, local_fs, [window])

        def job():
            yield from wrapped.open("/f", "w")

        with pytest.raises(NoSpaceError) as exc:
            drive(sim, job())
        assert exc.value.mount == MOUNT  # type: ignore[attr-defined]

    def test_draws_are_seed_deterministic(self, stacks):
        # Two injectors with the same seed replay the identical fault
        # sequence over the identical op sequence, in either form.
        window = TransientFaults(start=0.0, end=100.0, read_p=0.35)
        outcomes = []
        for form, sim, local_fs in stacks:
            local_fs.add_file("/g", 64)
            for _ in range(2):
                _, wrapped = make_wrapped(sim, local_fs, [window], seed=9)
                seq = []

                def job(w=wrapped, out=seq):
                    handle = None
                    for _i in range(30):
                        try:
                            if handle is None:
                                handle = yield from read_op(form, w, "open", "/g")
                            n = yield from read_op(form, w, "pread", handle, 0, 64)
                            out.append(("ok", n))
                        except IOFaultError:
                            out.append(("fault", 0))

                drive(sim, job())
                outcomes.append(seq)
        assert all(seq == outcomes[0] for seq in outcomes)
        assert ("fault", 0) in outcomes[0]  # p=0.35 over 30 ops: some faults
        assert ("ok", 64) in outcomes[0]


class TestLatencySpike:
    def test_pread_stretches_by_multiplier(self, stacks):
        for form, sim, local_fs in stacks:
            spike = LatencySpike(start=10.0, end=20.0, multiplier=3.0)
            _, wrapped = make_wrapped(sim, local_fs, [spike])
            handle = put_file(sim, wrapped, "/f", 1 << 20)

            def timed_read(at):
                def job():
                    yield sim.timeout_at(at)
                    t0 = sim.now
                    yield from read_op(form, wrapped, "pread", handle, 0, 1 << 20)
                    return sim.now - t0

                return drive(sim, job())

            plain = timed_read(1.0)
            spiked = timed_read(12.0)
            assert spiked == pytest.approx(3.0 * plain), form

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
