"""Profile a kernel probe cell under cProfile.

Runs the same contended cells as ``benchmarks/test_kernel_speed.py`` and
prints the top cumulative-time functions — the first stop when
events/sec regresses.  ``--setup`` picks the cell: ``vanilla-lustre``
(the historical probe), ``monarch`` (the middleware fused-read path that
dominates figure grids), ``monarch-overflow`` (perfbench's
train-overflow cell: LeNet over the 200 GiB dataset on the busy PFS,
which overflows the SSD, so about half the middleware's reads are
served from the PFS beside placement copies) or ``monarch-p2p`` (the
peer-cache cluster cell, run distributed on 3 nodes).  ``--workload``
profiles a trace-replay serving cell instead of training (on
``monarch`` unless ``--setup`` says otherwise).  ``--phase`` picks what
is profiled: ``execute`` (the default) runs the built cell, scenario
build excluded; ``build`` profiles the scenario build itself —
``build_run`` or ``build_cluster``, dataset layout and trace generation
included — and does not execute.
Usage::

    make profile-kernel                          # vanilla, 1/128, top 20
    python tools/profile_kernel.py --setup monarch --scale 1/64 --top 30
    python tools/profile_kernel.py --setup monarch-overflow --sort tottime
    python tools/profile_kernel.py --setup monarch-p2p
    python tools/profile_kernel.py --workload serve-zipf --sort tottime
    python tools/profile_kernel.py --workload serve-zipf --phase build
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.data.imagenet import IMAGENET_100G, IMAGENET_200G  # noqa: E402
from repro.experiments.calibration import DEFAULT_CALIBRATION  # noqa: E402
from repro.experiments.scenarios import SERVE_SETUPS, build_run  # noqa: E402
from repro.workload.spec import WORKLOADS  # noqa: E402

#: nodes for the distributed (monarch-p2p) probe
P2P_NODES = 3


#: ``--setup`` cells run on one node: setup, model, dataset, calibration
SINGLE_CELLS = {
    "vanilla-lustre": ("vanilla-lustre", "resnet50", IMAGENET_100G, DEFAULT_CALIBRATION),
    "monarch": ("monarch", "resnet50", IMAGENET_100G, DEFAULT_CALIBRATION),
    "monarch-overflow": ("monarch", "lenet", IMAGENET_200G, DEFAULT_CALIBRATION.busy()),
}


def _single_probe(cell: str, scale: float, workload: str | None = None):
    """Build a single-node cell (serving if ``workload``): (execute thunk, sim)."""
    setup, model, dataset, calib = SINGLE_CELLS[cell]
    handle = build_run(
        setup, model, dataset, calib,
        scale=scale, seed=0,
        workload=WORKLOADS[workload] if workload is not None else None,
    )
    return handle.execute, handle.sim


def _p2p_probe(scale: float):
    """Build the peer-cache cluster cell: (execute thunk, sim)."""
    from repro.distributed.cluster import ClusterSpec, build_cluster
    from repro.distributed.trainer import DistributedTrainer
    from repro.framework.models import MODELS

    cluster = build_cluster(
        setup="monarch-p2p",
        dataset=IMAGENET_100G,
        calib=DEFAULT_CALIBRATION,
        cluster_spec=ClusterSpec(n_nodes=P2P_NODES),
        scale=scale,
        seed=0,
        record_events=False,
    )
    assert cluster.env is not None
    trainer = DistributedTrainer(
        cluster=cluster,
        model=MODELS["resnet50"],
        pipeline_config=cluster.env.pipeline,
        partition_policy="reshuffle",
        epochs=DEFAULT_CALIBRATION.epochs,
        seed=0,
    )

    def execute():
        proc = cluster.sim.spawn(trainer.run(), name="dist-train")
        return cluster.sim.run(proc)

    return execute, cluster.sim


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--setup", default=None,
                        choices=(*SINGLE_CELLS, "monarch-p2p"),
                        help="probe cell to profile (default vanilla-lustre, "
                             "or monarch with --workload)")
    parser.add_argument("--workload", default=None, choices=sorted(WORKLOADS),
                        help="profile this trace-replay serving workload")
    parser.add_argument("--scale", default="1/128",
                        help="simulation scale (fraction, default 1/128)")
    parser.add_argument("--top", type=int, default=20,
                        help="number of functions to print (default 20)")
    parser.add_argument("--phase", default="execute", choices=("execute", "build"),
                        help="profile the cell's execution (default) or its "
                             "scenario build")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"),
                        help="pstats sort key (default cumulative)")
    args = parser.parse_args(argv)
    scale = float(Fraction(args.scale))
    setup = args.setup or ("monarch" if args.workload else "vanilla-lustre")
    if args.workload and setup not in SERVE_SETUPS:
        parser.error(f"--workload needs a serving setup, one of {SERVE_SETUPS}")

    if setup == "monarch-p2p":
        build = partial(_p2p_probe, scale)
        label = f"monarch-p2p/resnet50 x{P2P_NODES}"
    else:
        build = partial(_single_probe, setup, scale, args.workload)
        label = f"{setup}/{args.workload or SINGLE_CELLS[setup][1]}"
    profiler = cProfile.Profile()
    if args.phase == "build":
        build()  # warm-up: lazy imports and one-time caches stay out of the profile
        profiler.enable()
        build()
        profiler.disable()
        print(f"probe: {label} scale={args.scale} (scenario build)")
    else:
        execute, sim = build()
        profiler.enable()
        execute()
        profiler.disable()
        print(f"probe: {label} scale={args.scale} "
              f"({sim.events_processed} dispatch slots)")
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
