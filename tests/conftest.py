import numpy as np
import pytest

from nsmaxwell.grid import (
    Grid,
    SpectralField,
    _dealiased_physical,
    _half_spectral,
    _pack,
    _unpack,
    gradient_component,
)
from nsmaxwell.dyadic import build_partition
from nsmaxwell.system import MhdState, Trajectory


@pytest.fixture(scope="session")
def grid2():
    return Grid(2, 32)


@pytest.fixture(scope="session")
def part2(grid2):
    return build_partition(grid2)


@pytest.fixture(scope="session")
def grid3():
    return Grid(3, 16)


def random_field(grid, seed=0, slope=0.0):
    """Random real spectral field with optional power-law shaping."""
    rng = np.random.default_rng(seed)
    f = SpectralField.from_physical(grid, rng.standard_normal((3,) + grid.shape))
    if slope != 0.0:
        kmag = grid.k_magnitude()
        env = np.where(kmag > 0, np.where(kmag > 0, kmag, 1.0) ** (-slope), 0.0)
        f = SpectralField(grid, f.coeffs * env)
    f.dealias()
    f.zero_nyquist()
    return f


def single_mode_field(grid, mode, amplitude, component=2):
    """Real field with one Hermitian mode pair on the given component: the
    amplitude at ``mode`` and its conjugate at -mode, each stored where its
    last index is >= 0 (the half spectrum)."""
    c = np.zeros((3,) + grid.spectral_shape, dtype=np.complex128)
    for m, a in ((mode, amplitude), (tuple(-x for x in mode), np.conj(amplitude))):
        if m[-1] >= 0:
            c[component][tuple(x % grid.n for x in m)] = a
    return SpectralField(grid, c)


def scalar_product(a, b):
    """The dealiased componentwise product a_i b_i: both factors and the
    result truncated by the 2/3 rule, as ``pointwise_product`` truncates
    its cross product."""
    grid = a.grid
    prod = _dealiased_physical(a) * _dealiased_physical(b)
    return SpectralField(grid, _half_spectral(grid, prod))


def advection_product(a, b):
    """(a . grad) b = sum_j a_j d_j b, each a_j d_j b one scalar product;
    d_3 = 0 in 2D."""
    grid = a.grid
    out = SpectralField.zeros(grid)
    for j in range(grid.d):
        aj = SpectralField(grid, np.broadcast_to(a.coeffs[j], a.coeffs.shape))
        out = out + scalar_product(aj, gradient_component(b, j))
    return out


def apply_state(table, state):
    """``table.apply`` on an ``MhdState``: the state dt = ``table.dt`` later."""
    slots = table.apply(state.v.coeffs, state.E.coeffs, state.B.coeffs)
    return type(state)(*(SpectralField(table.grid, a) for a in slots),
                       time=state.time + table.dt)


def states_of(traj):
    """The states of a free or Picard ``Trajectory``, each unpacked from
    the kept stacks to the half spectrum (``grid._unpack``) when reached."""
    for i, t in enumerate(traj.times):
        yield MhdState(*(SpectralField(traj.grid, _unpack(traj.grid, a[i])) for a in traj.kept),
                       time=t)


def trajectory_of(grid, states):
    """The states, each on the modes the 2/3 rule keeps, packed into a
    ``Trajectory``; an amplitude on a killed mode would be dropped."""
    return Trajectory(grid, np.array([s.time for s in states]),
                      tuple(np.stack([_pack(grid, getattr(s, name).coeffs) for s in states])
                            for name in ("v", "E", "B")))


def count_transforms(monkeypatch):
    """Wrap every n-D FFT entry point of numpy.fft and scipy.fft; the
    returned list collects the names of the calls."""
    import numpy.fft
    import scipy.fft

    calls = []
    for lib in (numpy.fft, scipy.fft):
        for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2"):
            fn = getattr(lib, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(lib, name, counted)
    return calls


def count_trapezoids(monkeypatch):
    """Wrap ``propagators._trapezoid`` under each module name bound to it;
    the returned list collects one entry per exponential-trapezoid
    update."""
    from nsmaxwell import checks, propagators, system

    calls = []
    update = propagators._trapezoid

    def counted(*args):
        calls.append(len(args[1]))
        return update(*args)

    for module in (propagators, system, checks):
        monkeypatch.setattr(module, "_trapezoid", counted)
    return calls
