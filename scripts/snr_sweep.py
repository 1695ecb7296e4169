"""NMSE versus SNR for the robust and non-robust designs.

Setup: N = 16 RIS elements, K = 10 sensors, power budget P = 10, CSI error
radii eps_k = s * ||h_k|| with s in {0.4, 0.6}, SNR swept over
{0, 5, 10, 15, 20} dB. Writes a CSV and an SVG plot.

Usage:
    python3 scripts/snr_sweep.py [--trials 200] [--seed 20240823]
                                 [--outdir results]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from aircomp_ris.cli import records_to_csv
from aircomp_ris.experiments import SweepSpec, run_sweep
from aircomp_ris.model import SystemConfig
from aircomp_ris.svgplot import line_plot_svg, records_to_series


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20240823)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    base = SystemConfig(K=10, N=16, P=10.0, noise_var=1.0, s=0.4)
    spec = SweepSpec(
        kind="snr",
        values=[0.0, 5.0, 10.0, 15.0, 20.0],
        trials=args.trials,
        schemes=["multistart", "nonrobust"],
        base=base,
        master_seed=args.seed,
        s_values=[0.4, 0.6],
    )
    records = run_sweep(spec)

    os.makedirs(args.outdir, exist_ok=True)
    csv_path = os.path.join(args.outdir, "snr_sweep.csv")
    svg_path = os.path.join(args.outdir, "snr_sweep.svg")
    with open(csv_path, "w", newline="") as fh:
        fh.write(records_to_csv(records))
    with open(svg_path, "w") as fh:
        fh.write(
            line_plot_svg(records_to_series(records), "SNR (dB)", title="NMSE vs SNR")
        )

    for rec in records:
        print(
            f"snr={rec.value:5.1f} dB  {rec.scheme:22s} "
            f"nmse={rec.nmse_mean:.5f} (std {rec.nmse_std:.5f})"
        )
    print(f"wrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
