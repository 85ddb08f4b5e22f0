"""FIG3 — paper Figure 3: MONARCH vs all baselines, 100 GiB dataset.

The dataset fits the local tier, so MONARCH caches everything during the
first epoch.  Asserts the paper's two headline observations: MONARCH's
first epoch beats both vanilla-lustre's and vanilla-caching's, and total
time drops ~33% (LeNet) / ~15% (AlexNet).
"""

from __future__ import annotations

from benchmarks.conftest import run_in_benchmark
from repro.experiments.figures import PAPER_TOTALS_100G, fig3, render_grid
from repro.telemetry.runreport import RunReport


def _check_report_consistency(rep: RunReport) -> None:
    """The RunReport's independent accounting paths must agree exactly.

    * per-epoch × per-tier read deltas re-sum to the middleware's
      published ``monarch.reads.l*`` totals;
    * traced I/O (IOTrace wrapping the backend stats) re-sums to the
      backend counters it shadowed, byte for byte.
    """
    if rep.counters:
        published = {
            k.rsplit(".", 1)[1]: v
            for k, v in rep.counters.items()
            if k.startswith("monarch.reads.")
        }
        assert rep.tier_read_totals() == published
        assert rep.total_tier_reads() == sum(published.values())
    for name, b in rep.backends.items():
        assert b["traced_bytes_read"] == b["bytes_read"], name
        assert b["traced_bytes_written"] == b["bytes_written"], name
        assert b["traced_read_ops"] == b["read_ops"], name
        assert b["traced_write_ops"] == b["write_ops"], name


def test_fig3_monarch_100g(benchmark, bench_scale, bench_runs, tmp_path):
    grid = run_in_benchmark(
        benchmark, lambda: fig3(scale=bench_scale, runs=bench_runs, report=True)
    )
    print()
    print(render_grid(grid, PAPER_TOTALS_100G,
                      "FIG3: MONARCH vs baselines, 100 GiB (paper Fig. 3)"))

    for model, lo, hi in (("lenet", 0.55, 0.85), ("alexnet", 0.72, 0.95)):
        monarch = grid[(model, "monarch")]
        lustre = grid[(model, "vanilla-lustre")]
        caching = grid[(model, "vanilla-caching")]
        local = grid[(model, "vanilla-local")]
        # headline reductions: 33% (LeNet), 15% (AlexNet) vs lustre
        ratio = monarch.total_mean / lustre.total_mean
        assert lo < ratio < hi, f"{model}: total ratio {ratio:.2f}"
        # MONARCH's first epoch beats lustre AND caching (paper §IV-A)
        m_e1 = monarch.epoch_mean_std()[0][0]
        assert m_e1 < lustre.epoch_mean_std()[0][0]
        assert m_e1 < caching.epoch_mean_std()[0][0]
        # later epochs run at local-storage speed
        assert monarch.epoch_mean_std()[2][0] < 1.15 * local.epoch_mean_std()[2][0]
    # ResNet-50 stays flat with MONARCH too
    resnet_ratio = grid[("resnet50", "monarch")].total_mean / \
        grid[("resnet50", "vanilla-lustre")].total_mean
    assert 0.9 < resnet_ratio < 1.1

    # Every run carries a RunReport whose cross-checks hold; export the
    # MONARCH/LeNet one as the figure's observability artifact.
    for (model, setup), res in grid.items():
        for rec in res.runs:
            assert rec.report is not None, (model, setup)
            _check_report_consistency(RunReport.from_dict(rec.report))
    artifact = tmp_path / "fig3_lenet_monarch.report.json"
    artifact.write_text(
        RunReport.from_dict(grid[("lenet", "monarch")].runs[0].report).to_json()
    )
    print(f"RunReport artifact: {artifact}")
