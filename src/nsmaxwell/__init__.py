"""Pseudo-spectral Navier-Stokes-Maxwell solver and estimate checkers."""

from .grid import (
    Grid,
    SpectralField,
    leray_project,
    lp_norm_physical,
    pointwise_product,
)
from .dyadic import (
    DyadicBlocks,
    DyadicPartition,
    NormSpec,
    block,
    bony_decompose,
    build_partition,
    low_pass,
    norm_besov,
    norm_hst,
)
from .propagators import (
    BlowupError,
    PropagatorTable,
    duhamel_step,
    heat_apply,
    maxwell_apply,
    maxwell_wave_route,
    phi_multipliers,
)
from .system import (
    MhdState,
    Trajectory,
    ZNorm,
    energy_report,
    nonlinearity,
    ohm_current,
    picard_iterate,
    simulate,
    split_initial_data,
    taylor_green_velocity,
    z_norm,
)
from .ensembles import FieldEnsembleSpec, gen_ensemble, gen_field
from .snapshots import SnapshotError, read_snapshot, write_snapshot
from .checks import (
    PINNED_BOUNDS,
    EstimateReport,
    SeparableTrajectory,
    check_bernstein,
    check_l2linfty,
    check_maxwell_energy_decay,
    check_parabolic_smoothing,
    check_product_law,
    log_criticality_experiment,
    product_law_report,
)
from .config import ConfigError, RunConfig, parse_config

__version__ = "0.1.0"
