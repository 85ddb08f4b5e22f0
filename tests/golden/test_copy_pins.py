"""Pinned outcomes of the placement handler's background copies.

Cells:

* ``one_shard`` / ``three_shards`` — a hand-built MONARCH over one
  SATA SSD and a quiet PFS, 256 KiB copy chunks: a lone copy, and three
  copies contending for the single SSD channel.
* ``one_shard_ar`` / ``three_shards_ar`` — the same over a PFS under
  AR(1) interference on a 1 ms grid, so every read leg's service time
  depends on the instant it starts.
* ``torch_seed100`` / ``torch_seed101`` — the PyTorch-style loose-file
  monarch/LeNet 100 GiB run at 1/512: about 1,800 whole-file copies
  issued beside the foreground reads.

Each fixture entry records the end instant, the backend counters and the
placement handler's copy counters (plus the ``RunRecord`` for the torch
cells), all compared exactly.  The SSD channel's utilization is compared
at a relative 1e-12: how a channel's busy area is summed is an execution
detail that may move its last bits.  Dispatch-slot counts are not pinned
for the same reason.  After an intentional change to simulated
behaviour, refresh with::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/golden -q
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import asdict
from typing import Any, Callable

import numpy as np
import pytest

from repro.core.config import MonarchConfig, TierSpec
from repro.core.middleware import Monarch
from repro.data.imagenet import IMAGENET_100G
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.torch_scenarios import build_torch_run, run_torch_once
from repro.simkernel.core import Simulator
from repro.storage.device import SATA_SSD, Device
from repro.storage.interference import ARInterference
from repro.storage.localfs import LocalFileSystem
from repro.storage.pfs import ParallelFileSystem
from repro.storage.vfs import MountTable

GOLDEN = pathlib.Path(__file__).parent / "copy_pins.json"
MIB = 1 << 20
SHARDS = ("/dataset/shard-0", "/dataset/shard-1", "/dataset/shard-2")
#: relative tolerance for the SSD channel's utilization
UTIL_REL = 1e-12


def _copy_cell(n_shards: int, interference: bool) -> dict[str, Any]:
    """Read the first page of ``n_shards`` shards, then drain placement."""
    sim = Simulator()
    ssd = Device(sim, SATA_SSD, rng=np.random.default_rng(3))
    local = LocalFileSystem(sim, ssd, capacity_bytes=64 * MIB)
    kwargs: dict[str, Any] = {}
    if interference:
        kwargs["interference"] = ARInterference(
            np.random.default_rng(5), mean_load=0.5, sigma=0.2, interval=0.001)
    pfs = ParallelFileSystem(sim, rng=np.random.default_rng(4), **kwargs)
    for i, size in enumerate((3 * MIB + 4096, 2 * MIB + 123, MIB // 2)):
        pfs.add_file(f"/dataset/shard-{i}", size)
    mounts = MountTable()
    mounts.mount("/mnt/ssd", local)
    mounts.mount("/mnt/pfs", pfs)
    cfg = MonarchConfig(
        tiers=(TierSpec("/mnt/ssd"), TierSpec("/mnt/pfs")),
        dataset_dir="/dataset",
        placement_threads=2,
        copy_chunk=256 * 1024,
    )
    monarch = Monarch(sim, cfg, mounts, rng=np.random.default_rng(11))

    def job():
        yield from monarch.initialize()
        for name in SHARDS[:n_shards]:
            yield from monarch.read(name, 0, 4096)
        yield from monarch.placement.drain()

    sim.run(sim.spawn(job(), name="driver"))
    return _state(sim, monarch, local, pfs)


def _torch_cell(seed: int) -> dict[str, Any]:
    """The loose-file MONARCH run, plus the ``RunRecord`` it reports."""
    scale = 1 / 512
    handle = build_torch_run("monarch", "lenet", IMAGENET_100G, DEFAULT_CALIBRATION,
                             scale=scale, seed=seed)
    handle.execute()
    pin = _state(handle.sim, handle.monarch, handle.local_fs, handle.pfs)
    record = run_torch_once("monarch", "lenet", IMAGENET_100G, scale=scale, seed=seed)
    pin["record"] = asdict(record)
    return pin


def _state(sim: Simulator, monarch: Monarch, local: LocalFileSystem,
           pfs: ParallelFileSystem) -> dict[str, Any]:
    p = monarch.placement.stats
    return {
        "end": sim.now,
        "backends": {"local": asdict(local.stats.snapshot()),
                     "pfs": asdict(pfs.stats.snapshot())},
        "placement": {"completed": p.completed, "bytes_copied": p.bytes_copied,
                      "pfs_bytes_fetched": p.pfs_bytes_fetched},
        "ssd_utilization": local.device.channel.monitor.utilization(),
    }


CELLS: dict[str, Callable[[], dict[str, Any]]] = {
    "one_shard": lambda: _copy_cell(1, interference=False),
    "three_shards": lambda: _copy_cell(3, interference=False),
    "one_shard_ar": lambda: _copy_cell(1, interference=True),
    "three_shards_ar": lambda: _copy_cell(3, interference=True),
    "torch_seed100": lambda: _torch_cell(100),
    "torch_seed101": lambda: _torch_cell(101),
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_copy_matches_pinned_outcome(name):
    got = json.loads(json.dumps(CELLS[name]()))
    pins = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        pins[name] = got
        GOLDEN.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    if name not in pins:
        pytest.fail(f"{GOLDEN.name} has no {name!r} cell; generate it with "
                    "REPRO_UPDATE_GOLDEN=1 python -m pytest tests/golden -q")
    golden = dict(pins[name])
    assert golden["placement"]["completed"] > 0
    util = got.pop("ssd_utilization")
    assert util == pytest.approx(golden.pop("ssd_utilization"), rel=UTIL_REL, abs=0.0)
    assert set(got) == set(golden)
    for section in sorted(golden):
        assert got[section] == golden[section], (
            f"{GOLDEN.name}[{name!r}]: section {section!r} drifted from the pinned run"
        )
