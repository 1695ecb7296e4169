"""NMSE versus number of RIS elements N.

Setup: K = 8 sensors, power budget P = 100, s = 0.4, SNR = 0 dB, N swept
over {8, 16, 32, 64}. The low-SNR operating point matters: the error radii
scale as eps_k = s * ||h_k||, which makes the relative worst-case penalty
essentially independent of N, so the array-gain benefit of a larger RIS
shows up through the noise term and fades at high SNR.

Usage:
    python3 scripts/ris_size_sweep.py [--trials 200] [--seed 20240823]
                                      [--outdir results]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from aircomp_ris.cli import records_to_csv
from aircomp_ris.experiments import SweepSpec, run_sweep, snr_to_noise_var
from aircomp_ris.model import SystemConfig
from aircomp_ris.svgplot import line_plot_svg, records_to_series


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20240823)
    ap.add_argument("--snr", type=float, default=0.0, help="SNR in dB")
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    P = 100.0
    base = SystemConfig(
        K=8, N=8, P=P, noise_var=snr_to_noise_var(args.snr, P), s=0.4
    )
    spec = SweepSpec(
        kind="n",
        values=[8, 16, 32, 64],
        trials=args.trials,
        schemes=["multistart", "nonrobust"],
        base=base,
        master_seed=args.seed,
    )
    records = run_sweep(spec)

    os.makedirs(args.outdir, exist_ok=True)
    csv_path = os.path.join(args.outdir, "ris_size_sweep.csv")
    svg_path = os.path.join(args.outdir, "ris_size_sweep.svg")
    with open(csv_path, "w", newline="") as fh:
        fh.write(records_to_csv(records))
    with open(svg_path, "w") as fh:
        fh.write(
            line_plot_svg(
                records_to_series(records), "RIS elements N", title="NMSE vs N"
            )
        )

    for rec in records:
        print(
            f"N={int(rec.value):3d}  {rec.scheme:12s} "
            f"nmse={rec.nmse_mean:.5f} (std {rec.nmse_std:.5f})"
        )
    print(f"wrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
