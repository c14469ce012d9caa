"""Re-measure the reference families behind harness.FITTED_CONSTANTS.

The bound checkers compare lhs <= C * rhs where the inequalities only fix C
up to an absolute constant.  Each C was calibrated once as 1.1x the worst
observed ratio over a reference family at the sizes below, then frozen in
harness.py; this script replays the measurements so drift is visible when
anything upstream changes.  The extension-norm family defaults to fewer
draws than the frozen 200-per-radius run, so small deviations in its
"measured" column are expected sampling noise, not drift.

Full replay takes a few minutes, dominated by the extension-norm sweep.
"""

from __future__ import annotations

import argparse

import numpy as np

from evbounds import GridSpec, PotentialSpec, sample_potential
from evbounds.harness import (
    FITTED_CONSTANTS,
    check_extnorm,
    check_klt_det,
    check_sector,
    evsum_sweep,
    ext_norm_samples,
    schatten_campaign,
)
from evbounds.randomize import OmegaSpec
from evbounds.spectra import (
    SpectrumFilter,
    eigenvalues_dense,
    filter_discrete,
    hamiltonian_matrix,
)

TEMPLATE = OmegaSpec(h=1.0, distribution="bernoulli", master_seed=2026)


def _solve_filtered(gs, amplitude, kappa):
    field = sample_potential(
        PotentialSpec(kind="indicator_ball", amplitude=amplitude, R=1.0), gs
    )
    points = eigenvalues_dense(hamiltonian_matrix(gs, field))
    filt = SpectrumFilter(band=(0.0, np.inf), essential_margin=1e-12, kappa=kappa)
    return filter_discrete(points, filt), field


def klt_family() -> float:
    """V = a (1+i) 1_{B(1)} at d=2, q=3/2, kappa=1 discrete filter."""
    gs = GridSpec(d=2, L=8.0, N=32)
    worst = 0.0
    for a in (0.5, 1.0, 2.0, 4.0, 8.0):
        points, field = _solve_filtered(gs, a * (1 + 1j), kappa=1.0)
        report = check_klt_det(points, field, q=1.5)
        worst = max(worst, report.lhs / report.rhs_raw)
    return worst


def sector_family() -> float:
    """V = a i 1_{[-1,1]} at d=1, q=1, kappa=1."""
    gs = GridSpec(d=1, L=32.0, N=512)
    worst = 0.0
    for a in np.linspace(0.5, 10.0, 20):
        points, field = _solve_filtered(gs, a * 1j, kappa=1.0)
        report = check_sector(points, field, q=1.0, kappa=1.0)
        worst = max(worst, report.lhs / report.rhs_raw)
    return worst


def schatten_family(n_samples: int) -> float:
    """Per-realization weak-S^1 ratio of the angular-weighted sandwich, nu=1.

    The worst draw of schatten_campaign at R = 16 and 32 (L = 4R, dx = 0.25).
    """
    spec = PotentialSpec(kind="indicator_ball")
    res = schatten_campaign(spec, 1.0, (16.0, 32.0), 1.0, TEMPLATE, n_samples)
    return max(r["max_lhs"] / r["rhs_raw"] for r in res.values())


def extnorm_family(n_samples: int) -> float:
    """Mean randomized norm over R^{1/2} <h>^{d/2} ln(<R>)^{5/2}; h = lam = 1."""
    spec = PotentialSpec(kind="indicator_ball", amplitude=1.0, R=8.0)
    worst = 0.0
    for R in (8.0, 16.0, 32.0, 64.0):
        norms = ext_norm_samples(spec, TEMPLATE, 1.0, R, range(n_samples))
        report = check_extnorm(norms, R, TEMPLATE.h, abs(spec.amplitude))
        worst = max(worst, report.lhs / report.rhs_raw)
    return worst


def evsum_family() -> tuple[float, float]:
    """Amplitude sweep of V = a i 1_{B(1)}; returns the fitted (c1, c2)."""
    study = evsum_sweep(
        (1.0, 2.0, 4.0, 8.0),
        PotentialSpec(kind="indicator_ball", amplitude=1.0j, R=1.0),
        GridSpec(d=2, L=8.0, N=32),
        eps=0.1,
        R0=4.0,
        h=0.25,
        filt=SpectrumFilter.from_scales(4.0, 0.25, 1e-12, kappa=0.1),
    )
    return study.c1, study.c2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=50,
                        help="Monte Carlo draws per radius for the randomized families")
    args = parser.parse_args()

    rows = [
        ("KLT_DET d=1 q=1", 0.5, FITTED_CONSTANTS[("KLT_DET", 1, 1.0)], "exact 1/2, not fitted"),
        ("KLT_DET d=2 q=3/2", klt_family(), FITTED_CONSTANTS[("KLT_DET", 2, 1.5)], ""),
        ("SECTOR d=1 q=1", sector_family(), FITTED_CONSTANTS[("SECTOR", 1, 1.0)], ""),
        (
            "SCHATTEN_DECAY d=2 nu=1",
            schatten_family(args.samples),
            FITTED_CONSTANTS[("SCHATTEN_DECAY", 2, 1.0)],
            "worst single realization",
        ),
        (
            "PROP_EXTNORM d=2",
            extnorm_family(args.samples),
            FITTED_CONSTANTS[("PROP_EXTNORM", 2)],
            "mean over draws",
        ),
    ]
    print(f"{'family':28s} {'measured':>10s} {'frozen':>8s}   note")
    for name, measured, frozen, note in rows:
        print(f"{name:28s} {measured:10.4f} {frozen:8.4g}   {note}")

    c1, c2 = evsum_family()
    f1, f2 = FITTED_CONSTANTS[("EVSUM", 2)]
    print(f"{'EVSUM d=2 (c1, c2)':28s} {c1:10.4f} {f1:8.4g}   fitted prefactor")
    print(f"{'':28s} {c2:10.4f} {f2:8.4g}   fitted power")


if __name__ == "__main__":
    main()
