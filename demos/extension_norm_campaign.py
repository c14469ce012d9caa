"""Random vs deterministic sandwich-norm growth, plus the concentration tail.

Draws sign-randomized copies of 1_{B(R)} on unit cells, measures the norm of
the restriction-extension sandwich E* V_omega E at lam = 1, and fits log-log
slopes in R for the randomized mean and for the all-signs-positive reference.
Cancellation should hold the random slope near 1/2 while the deterministic
norm grows linearly; the R=32 draws also feed an exceedance table around
their mean.

About a minute at the default sizes.  The CLI drives the same campaign
resumably: evbounds campaign --config demos/configs/scaling_campaign.json
"""

from __future__ import annotations

import argparse

import numpy as np

from evbounds import PotentialSpec
from evbounds.harness import campaign_norms, concentration_tail, fit_scaling
from evbounds.randomize import OmegaSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--radii", type=float, nargs="+", default=[8.0, 16.0, 32.0, 64.0])
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args()

    spec = PotentialSpec(kind="indicator_ball", amplitude=1.0, R=args.radii[0])
    template = OmegaSpec(h=1.0, distribution="bernoulli", master_seed=args.seed)

    means, dets, tail = [], [], None
    print(f"{args.samples} realizations per radius, bernoulli signs, seed {args.seed}\n")
    print("    R      mean ||E*V_wE||   stderr     ||E*|V|E||")
    for R in args.radii:
        # One ensemble per radius: the draws' one holds the M(1) of |V| = V.
        norms, det = campaign_norms(spec, template, 1.0, R, range(args.samples), reference=True)
        means.append(norms.mean())
        dets.append(det)
        stderr = norms.std(ddof=1) / np.sqrt(len(norms))
        print(f"  {R:5g}   {means[-1]:12.4f}   {stderr:8.4f}   {det:12.4f}")
        if R == 32.0 and args.samples >= 100:
            tail = concentration_tail(norms)

    if len(args.radii) >= 3:
        slope_rand, _, r2_rand = fit_scaling(args.radii, means)
        slope_det, _, r2_det = fit_scaling(args.radii, dets)
        print(f"\nrandomized slope     {slope_rand:.4f}  (r2 = {r2_rand:.4f})")
        print(f"deterministic slope  {slope_det:.4f}  (r2 = {r2_det:.4f})")
        print(f"separation           {slope_det - slope_rand:.4f}")

    if tail is None:
        return
    print("\nexceedance around the R=32 mean:")
    for m, entry in zip(tail.thresholds, tail.entries):
        print(
            f"  ||X|| > {m:g} * mean : fraction {entry.fraction:.4f}"
            f"   (95% interval [{entry.lower:.4f}, {entry.upper:.4f}])"
        )
    if np.isfinite(tail.c):
        print(f"  fitted tail rate c = {tail.c:.4f} (log-fraction vs M^2)")


if __name__ == "__main__":
    main()
