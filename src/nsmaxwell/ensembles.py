"""Reproducible random spectral field ensembles for the estimate checkers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, SpectralField, leray_project
from .dyadic import block

__all__ = ["FieldEnsembleSpec", "gen_field", "gen_ensemble"]


@dataclass(frozen=True)
class FieldEnsembleSpec:
    """Gaussian spectral fields with power-law amplitude |k|^{-beta}.

    The fields lie on ``grid``; ``shell`` optionally concentrates them on
    one dyadic shell; ``divergence_free`` applies the Leray projection
    after sampling.  Identical seeds produce bit-identical ensembles.
    """

    seed: int
    count: int
    grid: Grid
    slope: float = 0.0
    shell: int | None = None
    divergence_free: bool = False


def gen_field(grid: Grid, rng: np.random.Generator, slope: float = 0.0,
              shell: int | None = None, divergence_free: bool = False) -> SpectralField:
    """One random field: real white noise shaped to |k|^{-slope} amplitudes."""
    white = rng.standard_normal((3,) + grid.shape)
    f = SpectralField.from_physical(grid, white)
    kmag = grid.k_magnitude()
    ksafe = np.where(kmag > 0, kmag, 1.0)
    envelope = np.where(kmag > 0, ksafe ** (-slope), 0.0)
    f = SpectralField(grid, f.coeffs * envelope)
    f.dealias()
    f.zero_nyquist()
    if shell is not None:
        f = block(f, shell)
    if divergence_free:
        f = leray_project(f)
    return f


def gen_ensemble(spec: FieldEnsembleSpec) -> list:
    rng = np.random.default_rng(spec.seed)
    return [
        gen_field(spec.grid, rng, spec.slope, spec.shell, spec.divergence_free)
        for _ in range(spec.count)
    ]
