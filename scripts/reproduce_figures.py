#!/usr/bin/env python3
"""Run the full set of simulation scenarios and collect their CSV tables.

Desk scale (the default, n_r = 20, n_t = b = 4, m = 80) takes about 4 s,
nearly all of it in the Monte Carlo columns of the seven sweep tables; with
``--no-montecarlo`` the tables take about 0.15 s.  ``--full-scale`` switches
to n_r = 100, n_t = b = 10 (m = 1000).  With ``--no-montecarlo`` the tables
take about 5 s: over three quarters in the shrinkage table (one dense
eigendecomposition of the estimated z per sample count, and the products that
score it, 4.0 s), 0.28 s in the adaptive table (drawing the windows and
forming their quadratic forms), about 1 s in the six degree and SNR sweeps
and 0.15 s in the receive-count sweep.  With Monte Carlo on it takes about
9 minutes, nearly all in sampling and applying the estimators in the six
degree and SNR sweeps.  (One BLAS thread, 2-vCPU x86 host, whose load moves
these times by a quarter from run to run.)
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from peachsim.cli import default_config, run_experiment  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="directory for the CSV/JSON tables")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--trials", type=int, default=2000, help="Monte Carlo trials per row")
    parser.add_argument("--full-scale", action="store_true", help="n_r = 100, n_t = b = 10")
    parser.add_argument("--no-montecarlo", action="store_true", help="analytic columns only")
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    common = dict(seed=args.seed, trials=args.trials, monte_carlo=not args.no_montecarlo)
    if args.full_scale:
        common.update(n_r=100, n_t=10, b=10)

    runs = {
        # MSE against polynomial degree for each interference strength
        "sweep_l_noise_limited": ("sweep-l", dict(betas=())),
        "sweep_l_beta01": ("sweep-l", dict(betas=(0.1, 0.1))),
        "sweep_l_beta1": ("sweep-l", dict(betas=(1.0, 1.0))),
        # MSE against pilot SNR with floor overlays
        "sweep_snr_noise_limited": ("sweep-snr", dict(betas=())),
        "sweep_snr_beta01": ("sweep-snr", dict(betas=(0.1, 0.1))),
        "sweep_snr_beta1": ("sweep-snr", dict(betas=(1.0, 1.0))),
        # MSE against the receive-antenna count at fixed degree
        "sweep_nr": ("sweep-nr", {}),
        # sliding-window weights against exactly optimized weights
        "adaptive": ("adaptive", {}),
        # estimators rebuilt from shrinkage covariance estimates
        "shrinkage": ("shrinkage", {}),
        # FLOP cost curves for two stationarity ratios
        "flops_q50": ("flops", dict(q_ratio=50.0)),
        "flops_q100": ("flops", dict(q_ratio=100.0)),
    }
    for name, (scenario, overrides) in runs.items():
        params = {**common, **overrides}
        params["out"] = str(outdir / f"{name}.csv")
        config = default_config(scenario, **params)
        rows = run_experiment(config)
        print(f"{name}: {len(rows)} rows -> {config.out}")


if __name__ == "__main__":
    main()
