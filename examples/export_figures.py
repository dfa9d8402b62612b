#!/usr/bin/env python3
"""Export figure data as CSV for external plotting.

Runs a compact version of the paper's quality and lag experiments and
writes their data as CSV files — one per figure — ready for gnuplot,
matplotlib, or a spreadsheet.  The three figures are planned together,
so the scenarios they share run once: one grid of 6 unique runs.

    python examples/export_figures.py --outdir ./figure-data
"""

import argparse
import os

from repro.experiments.figures import (
    LAG_GRID,
    fig5_quality_ref691,
    fig9_lag_cdf,
    fig10_churn,
)
from repro.experiments.gridrun import run_plans
from repro.experiments.scales import Scale
from repro.metrics.export import (
    lag_grid_rows,
    write_cdf_csv,
    write_result_csv,
    write_rows_csv,
    write_series_csv,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figure-data")
    parser.add_argument("--nodes", type=int, default=80)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    scale = Scale("export", args.nodes, args.seconds, 40.0)

    def out(name):
        return os.path.join(args.outdir, name)

    print("running Figures 5 (quality by class), 9 (lag CDFs) and "
          "10 (20% churn)...")
    fig5, fig9, fig10 = run_plans([fig5_quality_ref691(scale),
                                   fig9_lag_cdf(scale),
                                   fig10_churn(scale, fraction=0.2)])
    rows = write_result_csv(out("fig5_quality_by_class.csv"), fig5)
    print(f"  -> fig5_quality_by_class.csv ({rows} rows)")

    points = write_cdf_csv(out("fig9_lag_cdfs.csv"), fig9.extra["cdfs"])
    print(f"  -> fig9_lag_cdfs.csv ({points} points)")
    grid = write_rows_csv(out("fig9_lag_grid.csv"),
                          ["series"] + [f"lag<={x:g}s" for x in LAG_GRID],
                          lag_grid_rows(fig9.extra["cdfs"], LAG_GRID))
    print(f"  -> fig9_lag_grid.csv ({grid} rows)")

    points = write_series_csv(out("fig10_churn_series.csv"),
                              fig10.extra["series"])
    print(f"  -> fig10_churn_series.csv ({points} points); "
          f"failure at t={fig10.extra['failure_time']:.1f}s")

    print(f"\nall files under {args.outdir}/")


if __name__ == "__main__":
    main()
