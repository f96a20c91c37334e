"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; the smoke
mode of ``run.py`` fails when the two disagree.
"""

END_TO_END = (
    # (name, unit, better)
    ("setup_s", "s", "lower"),
    ("throughput", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# One span name per layer boundary; the metric name is "<span>.<field>".
# Fields: calls (count), self_s (span time minus child spans), and one
# size field computed from array sizes (bytes, points or out_points).
LAYER_SPANS = (
    ("grid.transform", ("calls", "self_s", "bytes")),
    ("grid.pointwise_product", ("calls", "self_s")),
    ("grid.leray_project", ("calls", "self_s")),
    ("grid.lp_norm_physical", ("calls", "self_s")),
    ("grid.geometry", ("calls", "self_s")),
    ("propagators.table_build", ("calls", "self_s")),
    ("propagators.apply", ("calls", "self_s")),
    ("propagators.duhamel_step", ("calls", "self_s")),
    ("system.nonlinearity", ("calls", "self_s")),
    ("system.energy_report", ("calls", "self_s")),
    ("system.divergence_defect", ("calls", "self_s")),
    ("system.z_norm", ("calls", "self_s")),
    ("dyadic.build_partition", ("calls", "self_s")),
    ("dyadic.block_l2", ("calls", "self_s")),
    ("dyadic.shell_series", ("calls", "self_s")),
    ("dyadic.profile", ("calls", "points", "self_s")),
    ("latticeblocks.block_convolve", ("calls", "out_points", "self_s")),
    ("latticeblocks.bony_paraproducts", ("self_s",)),
    ("latticeblocks.remainder_cluster_stats", ("self_s",)),
    ("latticeblocks.shell_norms", ("calls", "self_s")),
    ("checks.check_maxwell_energy_decay", ("calls", "self_s")),
    ("checks.check_l2linfty", ("calls", "self_s")),
    ("checks.heat_forced_coeffs", ("calls", "self_s")),
    ("checks.log_criticality_experiment", ("self_s",)),
    ("snapshots.write_snapshot", ("calls", "bytes", "self_s")),
)

_FIELD_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "bytes": ("bytes", "lower"),
    "points": ("count", "lower"),
    "out_points": ("count", "lower"),
}

PER_LAYER = tuple(
    (f"{span}.{fld}",) + _FIELD_UNITS[fld]
    for span, fields in LAYER_SPANS
    for fld in fields
) + (
    # user + system CPU time of an untraced run of a fixed amount of work
    ("proc.cpu_s", "s", "lower"),
    # traced throughput over untraced throughput on the same work; 1 = free
    ("proc.trace_overhead", "ratio", "higher"),
)
