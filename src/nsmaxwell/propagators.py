"""Exact per-mode linear propagators and Duhamel time stepping.

The linear generator acts blockwise: the heat semigroup e^{t Lap} on the
velocity and the damped-Maxwell group on (E, B).  The Maxwell block is
solved two independent ways: (a) eigen-decomposition of the per-mode 2x2
generator restricted to the transverse sector (eigenvalues
-1/2 +- sqrt(1/4 - |k|^2)), and (b) the damped-wave multiplier route
B(t) = L1(t) B0 + L2(t) (B0/2 + B1) with B1 = -curl E0.

Route (a) is one fused pass per mode (``_maxwell_modes``) on the unit
wavevectors khat each grid caches, with the 2x2 entries a11, a12, a22 and the
factor e_par of the longitudinal part of E; no field is split into parts:
    E_t = a11 E + (e_par - a11) khat (khat.E) + a12 i khat x B,
    B_t = a22 (B - khat (khat.B)) - a12 i khat x E.
It takes the imaginary coupling i a12, which ``PropagatorTable`` builds once
(also for ``maxwell_apply``) and ``maxwell_apply_undamped`` and the
closed-form decay checker (whose factors carry a time axis) form per call.
The table applies it to amplitudes, not states, writing into output slots
that may be its inputs.  The table's a11, a22 and the grid's khat are real,
held as complex128: numpy casts them so anyway.

A table's factors and khat live on the grid's stored modes, the half
spectrum (see ``grid``), so they multiply the amplitudes column for
column; ``PropagatorTable.kept`` gathers them onto the kept modes of the
time stacks (``system``).

One exponential-trapezoid update, ``_trapezoid``, discretises every Duhamel
integral: ``duhamel_step``, the Picard map and the forced Maxwell checker.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import Grid, SpectralField, _pack, curl, leray_project

__all__ = [
    "phi_multipliers",
    "phi_shell",
    "heat_apply",
    "maxwell_apply",
    "maxwell_wave_route",
    "maxwell_apply_undamped",
    "PropagatorTable",
    "duhamel_step",
    "BlowupError",
]

# The Duhamel steppers of ``duhamel_step``.
SCHEMES = ("exp-euler", "exp-trapezoid")


class BlowupError(RuntimeError):
    """Raised when a NaN/Inf coefficient appears during time stepping."""

    def __init__(self, step: int):
        super().__init__(f"numerical blowup at step {step}")
        self.step = step


def phi_multipliers(t, ksq):
    """The damped-wave scalar multipliers Phi1, Phi2.

    Phi1 = e^{-t/2} cosh(sqrt(1/4 - ksq) t),
    Phi2 = e^{-t/2} sinh(sqrt(1/4 - ksq) t) / sqrt(1/4 - ksq),
    evaluated stably across the three regimes (hyperbolic, oscillatory, and
    a 4-term Taylor series near the branch point x = 1/4 - ksq = 0).
    Broadcasts over array arguments; always returns real values.
    """
    t = np.asarray(t, dtype=np.float64)
    ksq = np.asarray(ksq, dtype=np.float64)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    if np.any(ksq < 0):
        raise ValueError("ksq must be nonnegative")
    x = 0.25 - ksq
    t, x = np.broadcast_arrays(t, x)
    phi1 = np.empty(x.shape)
    phi2 = np.empty(x.shape)

    taylor = np.abs(x) * t**2 < 1e-8
    hyper = (x > 0) & ~taylor
    osc = (x < 0) & ~taylor

    if np.any(hyper):
        # Fold the e^{-t/2} damping into the exponentials so the slow
        # branch e^{(mu - 1/2) t} never overflows at large t (mu < 1/2).
        mu = np.sqrt(x[hyper])
        th = t[hyper]
        ep = np.exp((mu - 0.5) * th)
        em = np.exp(-(mu + 0.5) * th)
        phi1[hyper] = 0.5 * (ep + em)
        phi2[hyper] = (ep - em) / (2.0 * mu)
    if np.any(osc):
        om = np.sqrt(-x[osc])
        to = t[osc]
        damp = np.exp(-to / 2.0)
        phi1[osc] = np.cos(om * to) * damp
        phi2[osc] = np.sin(om * to) / om * damp
    if np.any(taylor):
        xt = x[taylor]
        tt = t[taylor]
        z = xt * tt**2
        damp = np.exp(-tt / 2.0)
        phi1[taylor] = (1.0 + z / 2.0 + z**2 / 24.0 + z**3 / 720.0) * damp
        phi2[taylor] = tt * (1.0 + z / 6.0 + z**2 / 120.0 + z**3 / 5040.0) * damp

    return phi1, phi2


def phi_shell(q: int, t, which: int):
    """Low-shell envelope Phi_q^i(t) = Phi_i(t, 2^{2(q-1)}).

    Uses 1/4 - 2^{2(q-1)} consistently inside both the sinh and the
    denominator.
    """
    phi1, phi2 = phi_multipliers(t, 4.0 ** (q - 1))
    return phi1 if which == 1 else phi2


def heat_apply(u: SpectralField, t: float) -> SpectralField:
    """Per-mode multiply by e^{-t |k|^2}."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return SpectralField(u.grid, u.coeffs * np.exp(-t * u.grid.k_squared()))


def _maxwell_coefficients(ksq: np.ndarray, t):
    """Entries of exp(t M) for the 2x2 transverse generator
    M = [[-1, k], [-k, 0]], via the eigenvalues -1/2 +- sqrt(1/4 - ksq).
    ``t`` may be an array that broadcasts against ``ksq``."""
    mu = np.sqrt(0.25 - ksq.astype(np.complex128))
    lp = -0.5 + mu
    lm = -0.5 - mu
    ep = np.exp(lp * t)
    em = np.exp(lm * t)
    k = np.sqrt(ksq)

    degenerate = np.abs(mu) * t < 1e-8
    with np.errstate(divide="ignore", invalid="ignore"):
        a11 = (lp * ep - lm * em) / (2.0 * mu)
        a12 = k * (ep - em) / (2.0 * mu)
        a22 = (lp * em - lm * ep) / (2.0 * mu)
    if np.any(degenerate):
        e = np.exp(-0.5 * t)
        a11 = np.where(degenerate, e * (1.0 - 0.5 * t), a11)
        a12 = np.where(degenerate, e * k * t, a12)
        a22 = np.where(degenerate, e * (1.0 + 0.5 * t), a22)
    origin = ksq == 0
    if np.any(origin):
        # Exact at k = 0 (E0' = -E0, B0' = 0), where the forms above round.
        a11 = np.where(origin, np.exp(-t), a11)
        a12 = np.where(origin, 0.0, a12)
        a22 = np.where(origin, 1.0, a22)
    return a11.real, a12.real, a22.real


def _maxwell_modes(khat: np.ndarray, E: np.ndarray, B: np.ndarray,
                   a11, i_a12, a22, e_par, out=None):
    """The fused Maxwell pass of the module docstring on amplitudes E, B
    (3, *modes) with unit wavevectors khat (d, *modes) and the imaginary
    coupling ``i_a12`` = 1j * a12.  The factors broadcast against ``modes``;
    a leading (time) axis of theirs goes before the component axis of the
    result.  At khat = 0: E_t = a11 E, B_t = a22 B.  ``out`` = (E_t, B_t)
    may be (E, B): every product of theirs is formed before the first write."""
    if len(khat) == 2:  # d = 2: khat_3 = 0
        h1, h2 = khat
        kE = h1 * E[0] + h2 * E[1]
        kB = h1 * B[0] + h2 * B[1]
        xE = (h2 * E[2], -(h1 * E[2]), h1 * E[1] - h2 * E[0])
        xB = (h2 * B[2], -(h1 * B[2]), h1 * B[1] - h2 * B[0])
    else:
        h1, h2, h3 = khat
        kE = h1 * E[0] + h2 * E[1] + h3 * E[2]
        kB = h1 * B[0] + h2 * B[1] + h3 * B[2]
        xE = (h2 * E[2] - h3 * E[1], h3 * E[0] - h1 * E[2], h1 * E[1] - h2 * E[0])
        xB = (h2 * B[2] - h3 * B[1], h3 * B[0] - h1 * B[2], h1 * B[1] - h2 * B[0])
    par_E = (e_par - a11) * kE
    par_B = a22 * kB
    shape = np.broadcast_shapes(np.shape(a11), np.shape(e_par), E.shape[1:])
    lead = len(shape) - (khat.ndim - 1)
    shape = shape[:lead] + (3,) + shape[lead:]
    E_t, B_t = out or (np.empty(shape, np.complex128), np.empty(shape, np.complex128))
    for j, (Ej, Bj) in enumerate(zip(np.moveaxis(E_t, lead, 0), np.moveaxis(B_t, lead, 0))):
        np.multiply(a11, E[j], out=Ej)
        Ej += i_a12 * xB[j]
        np.multiply(a22, B[j], out=Bj)
        Bj -= i_a12 * xE[j]
        if j < len(khat):
            Ej += par_E * khat[j]
            Bj -= par_B * khat[j]
    return E_t, B_t


def maxwell_apply(E: SpectralField, B: SpectralField, t: float):
    """Exact damped-Maxwell group E' = -E + curl B, B' = -curl E.

    B is projected onto its divergence-free part first, then the table of
    step t, the solver's route, applies the group: the longitudinal part of
    E decays as e^{-t} (at k=0: E scaled by e^{-t}, B unchanged), the
    transverse sector by the closed-form 2x2 matrix exponential.
    """
    table = PropagatorTable.build(E.grid, t)
    return tuple(SpectralField(E.grid, a)
                 for a in table.apply_maxwell(E.coeffs, leray_project(B).coeffs))


def maxwell_wave_route(E0: SpectralField, B0: SpectralField, t: float) -> SpectralField:
    """Magnetic field via the damped-wave multipliers:
    B(t) = L1(t) B0 + L2(t) (B0/2 + B1), B1 = -curl E0."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    grid = B0.grid
    B0 = leray_project(B0)
    phi1, phi2 = phi_multipliers(t, grid.k_squared())
    B1 = -curl(E0).coeffs
    coeffs = phi1 * B0.coeffs + phi2 * (0.5 * B0.coeffs + B1)
    zero_mask = grid.k_squared() == 0
    coeffs[:, zero_mask] = B0.coeffs[:, zero_mask]
    return SpectralField(grid, coeffs)


def maxwell_apply_undamped(E: SpectralField, B: SpectralField, t: float):
    """Variant with the damping removed (test-only): the transverse sector
    rotates at frequency |k| and conserves |E|^2 + |B|^2."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    kmag = E.grid.k_magnitude()
    c, s = np.cos(kmag * t), np.sin(kmag * t)
    return tuple(SpectralField(E.grid, a) for a in _maxwell_modes(
        E.grid._unit_wavevectors, E.coeffs, leray_project(B).coeffs, c, 1j * s, c, 1.0))


@dataclass
class PropagatorTable:
    """Per-mode propagator factors at a fixed step dt, immutable once built;
    ``i_a12`` is the imaginary coupling 1j * a12 of ``_maxwell_modes``, and
    ``khat`` the grid's unit wavevectors.  Its applies act on amplitudes
    (3, *spectral_shape), those of ``kept()`` on (3, K), into ``out`` if given."""

    grid: Grid
    dt: float
    heat: np.ndarray
    a11: np.ndarray
    i_a12: np.ndarray
    a22: np.ndarray
    khat: np.ndarray
    e_damp: float

    @classmethod
    def build(cls, grid: Grid, dt: float) -> "PropagatorTable":
        if dt < 0:
            raise ValueError("dt must be nonnegative")
        ksq = grid.k_squared()
        a11, a12, a22 = _maxwell_coefficients(ksq, dt)
        return cls(grid=grid, dt=dt, heat=np.exp(-dt * ksq), a11=a11.astype(np.complex128),
                   i_a12=1j * a12, a22=a22.astype(np.complex128),
                   khat=grid._unit_wavevectors, e_damp=float(np.exp(-dt)))

    def kept(self) -> "PropagatorTable":
        """This table gathered onto the kept modes (``grid._pack``), not rebuilt."""
        return replace(self, **{name: _pack(self.grid, getattr(self, name))
                                for name in ("heat", "a11", "i_a12", "a22", "khat")})

    def apply_heat(self, v, out=None):
        return np.multiply(v, self.heat, out=out)

    def apply_maxwell(self, E, B, out=None):
        """No projection: B is taken as divergence-free."""
        return _maxwell_modes(self.khat, E, B, self.a11, self.i_a12, self.a22, self.e_damp, out)

    def apply(self, v, E, B, out=None):
        """e^{dt A} on the amplitudes (v, E, B), written into the slots
        ``out`` = (v, E, B), which may be the inputs, and returned; None
        allocates three new arrays."""
        if out is None:
            return self.apply_heat(v), *self.apply_maxwell(E, B)
        return self.apply_heat(v, out[0]), *self.apply_maxwell(E, B, out[1:])


def _trapezoid(propagate, g, hn0, hn1, out):
    """e^{dt A} (g + hn0) + hn1 slot by slot into ``out``, returned.

    ``g`` holds the slots ``propagate`` takes, (v, E, B) for
    ``PropagatorTable.apply`` or (E, B) for ``apply_maxwell``; ``hn0`` and
    ``hn1`` (an iterable) hold terms of the leading slots, so a trailing
    slot without one (B: N_B = 0) is only propagated.  The sums are formed
    in ``out``, which may be g or hn0, and propagated there in place.
    """
    k = len(hn0)
    for a, h, o in zip(g, hn0, out):
        np.add(a, h, out=o)
    propagate(*out[:k], *g[k:], out=out)
    for o, h in zip(out, hn1):
        o += h
    return out


def duhamel_step(amps, n0, nonlinearity, table: PropagatorTable,
                 scheme: str = "exp-trapezoid", step_index: int = 0):
    """One step of size dt = ``table.dt`` of the Duhamel integral equation
    from the amplitudes ``amps`` = (v, E, B) of G_n and ``n0`` = N(G_n),
    which it leaves as they are; returns those of G_{n+1} as three new arrays.

    exp-euler:      G_{n+1} = G* = e^{dt A} (G_n + dt N(G_n))
    exp-trapezoid:  G_{n+1} = e^{dt A} (G_n + dt/2 N(G_n)) + dt/2 N(G*)

    Each form is ``_trapezoid``, exp-euler with no trailing term: one
    propagator apply per nonlinearity evaluation.  Each update writes into
    w N(G_n) and a new B slot, and G* goes before the second allocates:
    writing into G* measured slower at 3D n=32, and holding it raised the
    step's peak memory above the kernel's.
    ``nonlinearity`` maps amplitudes (v, E, B) to (N_v, N_E), N_B = 0, and
    Leray-projects N_v itself; exp-trapezoid evaluates it once, at G*.  The
    caller holds N(G_n) already: ``march`` reads the Ohm current of G_n off
    it.  A non-finite amplitude of G_{n+1} raises ``BlowupError``.
    """
    dt = table.dt
    if dt <= 0:
        raise ValueError("dt must be positive")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")

    def update(w, n1):  # e^{dt A} (G_n + w N(G_n)) + w n1
        hn0 = tuple(w * n for n in n0)
        return _trapezoid(table.apply, amps, hn0, (w * n for n in n1),
                          (*hn0, np.empty_like(amps[2])))

    out = update(dt, ())
    if scheme == "exp-trapezoid":
        n1 = nonlinearity(*out)
        del out
        out = update(0.5 * dt, n1)
    if not all(np.all(np.isfinite(a)) for a in out):
        raise BlowupError(step_index)
    return out
