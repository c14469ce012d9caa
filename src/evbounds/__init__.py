"""Numerical laboratory for eigenvalue bounds of -Delta - V with random V.

Builds periodic spectral grids, samples deterministic potential profiles,
randomizes them cellwise, and probes the resulting non-Hermitian spectra
three ways: Birman-Schwinger operators, sphere-net sandwich operators with
their singular values, and dense eigensolves feeding weighted eigenvalue
sums.  A harness layer turns each inequality into a reproducible
pass/fail report.
"""

from .birman_schwinger import (
    BsOperator,
    assemble_bs,
    gelfand_spr,
)
from .errors import (
    ConfigError,
    EmptySupportError,
    SingularSymbolError,
    SupportError,
)
from .extension import (
    SandwichEnsemble,
    SandwichOperator,
    SphereNet,
    angular_weight,
    build_net,
    extension_matrix,
    sandwich,
    singular_values,
    weak_schatten,
)
from .grid import (
    GridSpec,
    apply_multiplier,
    resolvent_symbol,
)
from .harness import (
    FITTED_CONSTANTS,
    BoundReport,
    EvsumStudy,
    TailStudy,
    check_aad_1d,
    check_evsum,
    check_extnorm,
    check_klt_det,
    check_schatten_decay,
    check_sector,
    check_tail,
    check_thm1,
    check_thm3,
    concentration_tail,
    evsum_sweep,
    fit_scaling,
    schatten_campaign,
    stein_tomas_spread,
)
from .potential import (
    KINDS,
    DyadicLayer,
    PotentialField,
    PotentialSpec,
    dyadic_decompose,
    lq_norm,
    sample_potential,
    weighted_sup_norm,
)
from .randomize import (
    DISTRIBUTIONS,
    OmegaField,
    OmegaSpec,
    TailEntry,
    anderson_randomize,
    cell_values,
    draw_omega,
    tail_table,
)
from .spectra import (
    SpectralPoint,
    SpectrumFilter,
    delta_dist,
    eigenvalue_sum,
    eigenvalues_dense,
    filter_discrete,
    hamiltonian_matrix,
)
from .util import bracket, spectral_norm, wilson_interval

__version__ = "0.1.0"
