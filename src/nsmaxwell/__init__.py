"""Pseudo-spectral Navier-Stokes-Maxwell solver and estimate checkers.

The public names live in the submodules.  ``import nsmaxwell`` loads them
all (``cli`` excepted, which ``python -m nsmaxwell.cli`` runs as a script),
so a tracer installed right after it finds every function it wraps.
"""

from . import checks, config, dyadic, ensembles, grid, latticeblocks, propagators, snapshots, system

__version__ = "0.1.0"
