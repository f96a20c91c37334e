"""Reproducible random spectral fields: ``gen_field`` draws one field from
the generator it is given, so identical seeds give bit-identical ensembles."""

from __future__ import annotations

import numpy as np

from .grid import Grid, SpectralField, leray_project
from .dyadic import block

__all__ = ["gen_field"]


def gen_field(grid: Grid, rng: np.random.Generator, slope: float = 0.0,
              shell: int | None = None, divergence_free: bool = False) -> SpectralField:
    """One random field: real white noise shaped to |k|^{-slope} amplitudes,
    cut by the 2/3 rule (Nyquist modes included), restricted to the dyadic
    ``shell`` if given and Leray-projected if ``divergence_free``."""
    white = rng.standard_normal((3,) + grid.shape)
    f = SpectralField.from_physical(grid, white)
    kmag = grid.k_magnitude
    ksafe = np.where(kmag > 0, kmag, 1.0)
    envelope = np.where(kmag > 0, ksafe ** (-slope), 0.0)
    f = SpectralField(grid, f.coeffs * envelope)
    f.dealias()
    if shell is not None:
        f = block(f, shell)
    if divergence_free:
        f = leray_project(f)
    return f

