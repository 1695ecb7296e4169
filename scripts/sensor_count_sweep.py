"""Aggregate worst-case MSE versus number of sensors K.

Setup: N = 64 RIS elements, power budget P = 100, s = 0.4, SNR = 10 dB,
K swept over {2, 4, 6, 8, 10, 12}. Reports both per-sensor NMSE (which is
flat in K because the objective is separable across sensors once the power
constraint is substituted) and the aggregate MSE gap between the robust and
non-robust designs, which widens linearly with K.

Usage:
    python3 scripts/sensor_count_sweep.py [--trials 200] [--seed 20240823]
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
    ap.add_argument("--snr", type=float, default=10.0, help="SNR in dB")
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    P = 100.0
    base = SystemConfig(
        K=8, N=64, P=P, noise_var=snr_to_noise_var(args.snr, P), s=0.4
    )
    spec = SweepSpec(
        kind="k",
        values=[2, 4, 6, 8, 10, 12],
        trials=args.trials,
        schemes=["multistart", "nonrobust"],
        base=base,
        master_seed=args.seed,
    )
    records = run_sweep(spec)

    os.makedirs(args.outdir, exist_ok=True)
    csv_path = os.path.join(args.outdir, "sensor_count_sweep.csv")
    svg_path = os.path.join(args.outdir, "sensor_count_sweep.svg")
    with open(csv_path, "w", newline="") as fh:
        fh.write(records_to_csv(records))
    with open(svg_path, "w") as fh:
        fh.write(
            line_plot_svg(records_to_series(records), "sensors K", title="NMSE vs K")
        )

    by_cell = {(rec.value, rec.scheme): rec for rec in records}
    print(f"{'K':>3}  {'robust nmse':>12}  {'nonrob nmse':>12}  {'aggregate MSE gap':>18}")
    for k in spec.values:
        rob = by_cell[(k, "multistart")]
        non = by_cell[(k, "nonrobust")]
        gap = k * (non.nmse_mean - rob.nmse_mean)
        print(f"{k:3d}  {rob.nmse_mean:12.6f}  {non.nmse_mean:12.6f}  {gap:18.3e}")
    print(f"wrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
