"""Spectral densities, memory kernels and the level Green's functions.

A set of discrete levels with energies ``e_s`` couples to a broad
environment described by a spectral density J(omega).  The retarded-type
propagator G1 and the lesser-type propagator G2 (conventions recorded in
:data:`GREEN_CONVENTION`) obey memory-kernel equations

    dG1/dt + i e_s G1 + int_t0^t v(t - s) G1(s) ds = 0
    dG2/dt + i e_s G2 + int_t0^t v(t - s) G2(s) ds = int_t0^t v(t - s) G1(s)^dag ds

where v is the Fourier transform of J(omega) / 2pi.  A flat background
J0 contributes a delta kernel J0 * delta(t - s), taken with full weight
at the running endpoint so that the flat-background solution is the pure
exponential decay exp(-i (e_s - i J0) (t - t0)).  A Lorentzian resonance
of strength J1, centre E0 and width Gamma contributes the smooth kernel
(J1 Gamma / 2) exp(-(i E0 + Gamma) s) once the band cut-off is infinite.

The module provides a trapezoidal (Crank-Nicolson) Volterra march, closed
forms for the flat and resonant cases, and the amplitude/phase
decomposition of the resonant propagator used to map the crossover
between decaying and oscillating regimes.  The march costs O(n), as a
per-level recursive filter, when the smooth kernel is zero or a single
exponential (flat background, resonance with infinite cut-off); tabulated
and finite cut-off kernels take the O(n^2) reference march.  Every kernel
is in closed form: the exponential of the infinite cut-off, exponential
integrals for a finite cut-off, and the exact transform of a tabulated
density's piecewise-linear interpolant; none uses adaptive quadrature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.signal
import scipy.special
from numpy.polynomial import polynomial as npp

GREEN_CONVENTION = "G1 = i * G_retarded, G2 = -i * G_lesser"

_KINDS = ("constant", "lorentzian", "tabulated")


class BranchSingularityError(ValueError):
    """The resonant closed form hits a double root of its characteristic polynomial."""

    def __init__(self, message: str, critical_j1: complex):
        super().__init__(message)
        self.critical_j1 = critical_j1


class StepSizeError(RuntimeError):
    """Grid step too coarse for the requested problem (strict mode)."""


class StepSizeWarning(UserWarning):
    pass


@dataclass(frozen=True)
class SpectralDensity:
    """Environment spectral function J(omega).

    ``constant``    flat background j0 over the whole frequency axis.
    ``lorentzian``  j0 plus a resonance j1 * gamma^2 / ((w - e0)^2 + gamma^2)
                    restricted to the window |w - e0| < omega_cut.
    ``tabulated``   linear interpolation of (omega, value) samples, zero
                    outside the sampled range, no delta background.
    """

    kind: str
    j0: float = 0.0
    j1: float = 0.0
    e0: float = 0.0
    gamma: float = 1.0
    omega_cut: float = math.inf
    table: tuple | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown spectral density kind {self.kind!r}")
        if self.j0 < 0 or self.j1 < 0:
            raise ValueError("spectral strengths j0, j1 must be nonnegative")
        if self.kind == "lorentzian":
            if self.gamma <= 0:
                raise ValueError("resonance width gamma must be positive")
            if self.omega_cut <= 0:
                raise ValueError("band cut-off omega_cut must be positive")
        if self.kind == "tabulated":
            if self.table is None:
                raise ValueError("tabulated density needs a table")
            omega, values = self.table
            if len(omega) < 2 or np.any(np.diff(omega) <= 0):
                raise ValueError("table grid must be strictly increasing with >= 2 points")
            if np.any(np.asarray(values) < 0):
                raise ValueError("table values must be nonnegative")

    @classmethod
    def constant(cls, j0: float) -> "SpectralDensity":
        return cls(kind="constant", j0=float(j0))

    @classmethod
    def lorentzian(cls, j0: float, j1: float, e0: float, gamma: float,
                   omega_cut: float = math.inf) -> "SpectralDensity":
        return cls(kind="lorentzian", j0=float(j0), j1=float(j1), e0=float(e0),
                   gamma=float(gamma), omega_cut=float(omega_cut))

    @classmethod
    def tabulated(cls, omega, values) -> "SpectralDensity":
        om = np.asarray(omega, dtype=float)
        va = np.asarray(values, dtype=float)
        if om.shape != va.shape:
            raise ValueError("omega and value arrays must have the same length")
        return cls(kind="tabulated", table=(om, va))

    def peak(self) -> float:
        """Scale used by the step-size guard (max of J over frequency)."""
        if self.kind == "constant":
            return self.j0
        if self.kind == "lorentzian":
            return self.j0 + self.j1
        return float(np.max(self.table[1]))

    def delta_weight(self) -> float:
        """Weight of the instantaneous (delta) part of the memory kernel."""
        return 0.0 if self.kind == "tabulated" else self.j0


def spectral_eval(density: SpectralDensity, omega) -> np.ndarray | float:
    """Evaluate J(omega); accepts scalars or arrays."""
    w = np.asarray(omega, dtype=float)
    if density.kind == "constant":
        out = np.full_like(w, density.j0)
    elif density.kind == "lorentzian":
        detune = w - density.e0
        bump = density.j1 * density.gamma**2 / (detune**2 + density.gamma**2)
        out = density.j0 + np.where(np.abs(detune) < density.omega_cut, bump, 0.0)
    else:
        om, va = density.table
        out = np.interp(w, om, va, left=0.0, right=0.0)
    return float(out) if np.isscalar(omega) else out


@dataclass(frozen=True)
class KernelValue:
    smooth: complex
    delta_weight: float


#: Below this |theta| the segment transform uses its Taylor series: the
#: closed form (sin t - t cos t) / t^2 cancels to a relative error of about
#: 3 eps / t^2, and eight series terms stay within 2.2e-16 up to t = 0.5.
_SERIES_THETA = 0.5
_SINC_SERIES = [(-1) ** n / math.factorial(2 * n + 1) for n in range(7, -1, -1)]
_ODD_SERIES = [(-1) ** (n + 1) * 2 * n / math.factorial(2 * n + 1) for n in range(8, 0, -1)]
#: Lags x segments evaluated at once; bounds the temporaries of long tables.
_TABLE_BLOCK = 1 << 18


def _table_kernel(om: np.ndarray, va: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """Exact (1/2pi) * integral of the piecewise-linear table times exp(-i w s).

    On a segment of width L, centre c, mean value f and rise df the
    integral is exp(-i c s) [L f sinc(theta) - i (df L / 2) (sin theta -
    theta cos theta) / theta^2] with theta = L s / 2; the table is zero
    outside its nodes.  Vectorised over lags x segments.
    """
    width = np.diff(om)
    centre = 0.5 * (om[1:] + om[:-1])
    mean_part = width * 0.5 * (va[1:] + va[:-1])
    rise_part = 0.5 * width * np.diff(va)
    out = np.empty(lags.shape, dtype=complex)
    rows = max(1, _TABLE_BLOCK // width.size)
    for start in range(0, lags.size, rows):
        s = lags[start:start + rows, None]
        theta = 0.5 * width * s
        small = np.abs(theta) < _SERIES_THETA
        safe = np.where(small, 1.0, theta)
        sin, cos, t2 = np.sin(safe), np.cos(safe), theta * theta
        sinc = np.where(small, np.polyval(_SINC_SERIES, t2), sin / safe)
        odd = np.where(small, theta * np.polyval(_ODD_SERIES, t2),
                       (sin - safe * cos) / (safe * safe))
        terms = np.exp(-1j * centre * s) * (mean_part * sinc - 1j * rise_part * odd)
        out[start:start + rows] = terms.sum(axis=1)
    return out / (2.0 * math.pi)


#: Above this |Re z|, exp(z) or E1(z) leaves the double range (e^709), so
#: f(z) = exp(z) E1(z) takes its asymptotic series, whose eight terms stay
#: within 1e-17 relative for |z| > 500.
_ASYMPTOTIC_RE = 500.0
_ASYMPTOTIC_SERIES = [(-1) ** k * math.factorial(k) for k in range(7, -1, -1)]


def _scaled_exp1(z: np.ndarray) -> np.ndarray:
    """f(z) = exp(z) E1(z); sum_k (-1)^k k! / z^(k+1) where |Re z| is large."""
    far = np.abs(z.real) > _ASYMPTOTIC_RE
    near = np.where(far, 1.0, z)
    inv = 1.0 / np.where(far, z, 1.0)
    return np.where(far, inv * np.polyval(_ASYMPTOTIC_SERIES, inv),
                    np.exp(near) * scipy.special.exp1(near))


def _cut_kernel(j1: float, gamma: float, e0: float, cut: float,
                lags: np.ndarray) -> np.ndarray:
    """Exact (1/2pi) * integral of the resonance over |w - e0| < cut times exp(-i w s).

    With x = w - e0 the kernel is (j1 gamma^2 / 2pi) exp(-i e0 s) I(s),
    I(s) = int_{-c}^{c} cos(x s) / (x^2 + gamma^2) dx, which is even in s.
    I is the full-line value pi exp(-gamma s) / gamma less the tails
    |x| > c, and partial fractions in x -+ i gamma make each tail an
    exponential integral: with f(z) = exp(z) E1(z), for s > 0

        gamma I(s) = pi exp(-gamma s)
                     + Im(exp(i c s) [f(gamma s - i c s) - f(-gamma s - i c s)]),

    and gamma I(0) = 2 atan(c / gamma).
    """
    at_zero = lags == 0
    s = np.where(at_zero, 1.0, np.abs(lags))
    z = -1j * cut * s
    tails = np.exp(1j * cut * s) * (_scaled_exp1(z + gamma * s) - _scaled_exp1(z - gamma * s))
    gamma_i = np.where(at_zero, 2.0 * math.atan(cut / gamma),
                       math.pi * np.exp(-gamma * s) + tails.imag)
    return (0.5 * j1 * gamma / math.pi) * np.exp(-1j * e0 * lags) * gamma_i


def _exponential_form(density: SpectralDensity) -> tuple[complex, complex] | None:
    """(a, r) when the smooth kernel is a * exp(-r s), else None.

    The flat background has no smooth part (a = 0); the resonance with
    infinite cut-off has a = j1 gamma / 2 and r = i e0 + gamma.
    """
    if density.kind == "constant":
        return 0j, 0j
    if density.kind == "lorentzian" and math.isinf(density.omega_cut):
        return 0.5 * density.j1 * density.gamma, 1j * density.e0 + density.gamma
    return None


def memory_kernel(density: SpectralDensity, dt: float) -> KernelValue:
    """Time-domain kernel at lag dt >= 0, split into smooth and delta parts.

    The flat background never enters the smooth part; it is returned as
    ``delta_weight``.  Every smooth part is in closed form: the resonance
    with infinite cut-off is (j1 gamma / 2) exp(-(i e0 + gamma) dt), a
    finite cut-off takes exponential integrals (:func:`_cut_kernel`) and a
    tabulated density the exact transform of its piecewise-linear
    interpolant.  No kernel uses adaptive quadrature.
    """
    if dt < 0:
        raise ValueError("kernel lag must be nonnegative")
    smooth = kernel_on_grid(density, np.array([dt]))[0]
    return KernelValue(complex(smooth), density.delta_weight())


def kernel_on_grid(density: SpectralDensity, lags: np.ndarray) -> np.ndarray:
    """Smooth kernel part sampled on an array of lags."""
    lags = np.asarray(lags, dtype=float)
    form = _exponential_form(density)
    if form is not None:
        amp, rate = form
        return amp * np.exp(-rate * lags)
    if density.kind == "tabulated":
        return _table_kernel(*density.table, lags)
    return _cut_kernel(density.j1, density.gamma, density.e0, density.omega_cut, lags)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``steps`` intervals on [t0, t1]."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ValueError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        if self.steps < 2:
            raise ValueError("need at least 2 steps")

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / self.steps

    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.steps + 1)


@dataclass(frozen=True)
class GreenProblem:
    es: np.ndarray
    density: SpectralDensity
    grid: TimeGrid

    def __post_init__(self):
        es = np.asarray(self.es, dtype=float)
        if es.ndim != 1 or es.size == 0 or not np.isfinite(es).all():
            raise ValueError("es must be a nonempty finite 1-d array of level energies")
        object.__setattr__(self, "es", es)


@dataclass(frozen=True)
class GreenSolution:
    """Diagonal propagator matrices on a time grid.

    ``g1[k]`` and ``g2[k]`` are N x N matrices at grid point k; g1 starts
    at the identity and g2 at zero, exactly.  ``g2`` is None for closed
    forms that only describe the retarded component.
    """

    grid: TimeGrid
    g1: np.ndarray
    g2: np.ndarray | None = None
    convention_note: str = GREEN_CONVENTION

    def __post_init__(self):
        if np.abs(self.g1[0] - np.eye(self.g1.shape[1])).max() != 0.0:
            raise ValueError("g1 must equal the identity exactly at t0")
        if self.g2 is not None and np.abs(self.g2[0]).max() != 0.0:
            raise ValueError("g2 must vanish exactly at t0")

    def level(self, k: int) -> tuple[np.ndarray, np.ndarray | None]:
        """1-d trajectories of g1 (and g2 if present) for level k."""
        g2 = None if self.g2 is None else self.g2[:, k, k]
        return self.g1[:, k, k], g2


def _embed_diagonal(levels: np.ndarray) -> np.ndarray:
    n_times, n_lev = levels.shape
    out = np.zeros((n_times, n_lev, n_lev), dtype=complex)
    idx = np.arange(n_lev)
    out[:, idx, idx] = levels
    return out


def _volterra_march(m_coef: np.ndarray, kern: np.ndarray, h: float,
                    g0: np.ndarray, forcing: np.ndarray | None) -> np.ndarray:
    """March g' = m g - (kern * g)(t) + forcing with the trapezoid rule.

    The history convolution uses trapezoid weights and the corrector is
    solved in closed form (the update is linear in the unknown node), so
    the scheme is the fully converged predictor-corrector, global O(h^2).
    """
    n = len(kern) - 1
    g = np.zeros((n + 1, len(m_coef)), dtype=complex)
    g[0] = g0
    has_kernel = bool(np.any(kern))
    denom = 1.0 - 0.5 * h * m_coef + 0.25 * h * h * kern[0]
    f_prev = m_coef * g[0] + (forcing[0] if forcing is not None else 0.0)
    for k in range(n):
        if has_kernel:
            hist = kern[k + 1:0:-1] @ g[:k + 1]
            s_tilde = h * (hist - 0.5 * kern[k + 1] * g[0])
        else:
            s_tilde = 0.0
        drive = forcing[k + 1] if forcing is not None else 0.0
        g[k + 1] = (g[k] + 0.5 * h * (f_prev - s_tilde + drive)) / denom
        s_new = s_tilde + 0.5 * h * kern[0] * g[k + 1]
        f_prev = m_coef * g[k + 1] - s_new + drive
    return g


def _trapezoid_convolution(kern: np.ndarray, sig: np.ndarray, h: float) -> np.ndarray:
    """h * trapezoid-weighted causal convolution of kern with each signal column."""
    n = len(kern) - 1
    out = np.empty_like(sig)
    for lev in range(sig.shape[1]):
        out[:, lev] = scipy.signal.fftconvolve(kern, sig[:, lev])[: n + 1]
    out -= 0.5 * np.outer(kern, sig[0])
    out -= 0.5 * kern[0] * sig
    out *= h
    out[0] = 0.0
    return out


def _march_levels(m_coef: np.ndarray, kern: np.ndarray, h: float,
                  j0: float) -> tuple[np.ndarray, np.ndarray]:
    """g1 and g2 of every level by the O(n^2) reference march, for any kernel."""
    ones = np.ones(m_coef.size, dtype=complex)
    g1 = _volterra_march(m_coef, kern, h, ones, None)
    h1 = g1.conj()
    forcing = j0 * h1
    if np.any(kern):
        forcing = forcing + _trapezoid_convolution(kern, h1, h)
    g2 = _volterra_march(m_coef, kern, h, np.zeros_like(ones), forcing)
    return g1, g2


def _recursive_levels(m_coef: np.ndarray, amp: complex, rate: complex, h: float,
                      j0: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The march of :func:`_march_levels` for the kernel amp * exp(-rate s), in O(n).

    On the grid the kernel is amp q^j, q = exp(-rate h), so the history sum
    H_k = sum_{j<k} amp q^(k-j) g_j obeys H_k = q (H_{k-1} + amp g_{k-1})
    and the march is a constant-coefficient recurrence.  In powers of the
    delay z, with p = h / 2, P = 1 - q z and Q = p amp (1 + q z) (Q / P is
    the trapezoid kernel sum), g_{k+1} - g_k = p (f_k + f_{k+1}) reads

        [(1 - z) P - p (1 + z) (m P - Q)] g = r P + p (1 + z) (Q_0 g_0 + P d)

    with forcing d and r = g_0 - p f_0: g1 has g_0 = 1, d = 0; g2 has
    g_0 = 0, d = j0 h1 + the trapezoid convolution of the kernel with
    h1 = conj(g1).  Without a kernel P = 1, Q = 0 (the Cayley filter).
    The poles lie O(h) from z = 1, where a direct-form denominator loses
    its O(h^2) coefficients to rounding, so the filter runs as first-order
    sections with poles (1 + p mu) / (1 - p mu): mu = m without a kernel,
    else the roots of mu^2 + (kappa (1 + amp p^2) - m) mu + amp - m kappa,
    q = (1 - p kappa) / (1 + p kappa), whose coefficients are O(1).
    """
    p = 0.5 * h
    if amp == 0:
        big_p, big_q = np.ones(1), np.zeros(1)
    else:
        q = np.exp(-rate * h)
        kappa = np.tanh(0.5 * rate * h) / p
        big_p, big_q = np.array([1.0, -q]), p * amp * np.array([1.0, q])
    edge = npp.polymul((1.0, 1.0), big_q[:1])          # Q_0 (1 + z)
    impulse = np.zeros(steps + 1)
    impulse[0] = 1.0
    g1 = np.empty((steps + 1, m_coef.size), dtype=complex)
    g2 = np.empty_like(g1)
    for lev, m in enumerate(m_coef):
        mu = np.array([m]) if amp == 0 else _quadratic_roots(
            kappa * (1.0 + amp * p * p) - m, amp - m * kappa)
        poles = (1.0 + p * mu) / (1.0 - p * mu)
        lead = 1.0 - p * (m - big_q[0])                # the z^0 coefficient
        g = _pole_cascade(npp.polyadd((1.0 - p * m) * big_p, p * edge), lead, poles,
                          impulse)
        g[0] = 1.0
        h1 = g.conj()
        g2[:, lev] = (
            _pole_cascade(p * npp.polymul((1.0, 1.0), j0 * big_p + big_q), lead, poles, h1)
            - p * h1[0] * _pole_cascade(npp.polyadd(j0 * big_p, edge), lead, poles, impulse))
        g1[:, lev] = g
    return g1, g2


def _pole_cascade(numer: np.ndarray, lead: complex, poles: np.ndarray,
                  signal: np.ndarray) -> np.ndarray:
    """Filter numer(z) / (lead * prod(1 - pole z)), one first-order section per pole."""
    sos = np.zeros((poles.size, 6), dtype=complex)
    sos[0, :len(numer)] = numer / lead
    sos[1:, 0] = 1.0
    sos[:, 3] = 1.0
    sos[:, 4] = -poles
    return scipy.signal.sosfilt(sos, signal)


def _quadratic_roots(b: complex, c: complex) -> np.ndarray:
    """Both roots of mu^2 + b mu + c, without cancellation."""
    s = np.sqrt(b * b - 4.0 * c)
    if (np.conj(b) * s).real < 0:
        s = -s
    big = -0.5 * (b + s)
    return np.array([big, c / big if big != 0 else 0.0], dtype=complex)


def solve_green(problem: GreenProblem, strict: bool = False) -> GreenSolution:
    """Numerical solution of the two memory-kernel equations.

    The delta part of the kernel acts as a local decay term -J0 * G with
    full weight from the first step on, so a flat spectral density
    reproduces the pure exponential solution to discretisation accuracy.
    The G2 equation is driven by the conjugate of the already computed
    G1 history.  Both use the trapezoid march: in O(n) for a single
    exponential or zero smooth kernel, else the O(n^2) reference march.
    """
    grid = problem.grid
    h = grid.h
    scale = float(np.max(np.abs(problem.es)) + problem.density.peak())
    if h * scale >= 0.1:
        msg = (f"step h = {h:.3e} is coarse for energy scale {scale:.3e} "
               f"(h * scale = {h * scale:.3e} >= 0.1)")
        if strict:
            raise StepSizeError(msg)
        warnings.warn(msg, StepSizeWarning, stacklevel=2)
    j0 = problem.density.delta_weight()
    m_coef = -(1j * problem.es + j0)
    form = _exponential_form(problem.density)
    if form is None:
        kern = kernel_on_grid(problem.density, h * np.arange(grid.steps + 1))
        g1, g2 = _march_levels(m_coef, kern, h, j0)
    else:
        g1, g2 = _recursive_levels(m_coef, *form, h, j0, grid.steps)
    g1[0] = 1.0
    g2[0] = 0.0
    return GreenSolution(grid=grid, g1=_embed_diagonal(g1), g2=_embed_diagonal(g2))


def analytic_green_const(es, j0: float, grid: TimeGrid) -> GreenSolution:
    """Closed form for a flat spectral density.

    g1 = exp(-i (e - i j0) dt) decays at rate j0.  g2 solves the g2
    equation driven by j0 conj(g1):

        g2 = j0 exp(-j0 dt) sin(e dt) / e,

    which is j0 dt exp(-j0 dt) at e = 0.  Only there does it equal the
    linear-in-time form j0 dt g1.
    """
    if j0 < 0:
        raise ValueError("j0 must be nonnegative")
    es = np.asarray(es, dtype=float)
    dt = grid.times() - grid.t0
    g1 = np.exp(-1j * np.outer(dt, es - 1j * j0))
    # sin(e dt) / e = dt sinc(e dt / pi), exact at e = 0
    g2 = (j0 * dt * np.exp(-j0 * dt))[:, None] * np.sinc(np.outer(dt, es) / np.pi)
    g1[0] = 1.0
    g2[0] = 0.0
    return GreenSolution(grid=grid, g1=_embed_diagonal(g1), g2=_embed_diagonal(g2))


def _resonant_branches(es, j0: float, j1: float, e0: float, gamma: float):
    """Both branches of the resonant g1 = a1 exp(phi1 dt) + a2 exp(phi2 dt).

    For the kernel (j1 gamma / 2) exp(-(i e0 + gamma) s), with
    z = (e - e0) - i (j0 - gamma) and base = (e + e0) - i (j0 + gamma),
    the characteristic roots are phi1,2 = -(i/2) (base +- R) for the
    principal root R = sqrt(z^2 + 2 j1 gamma), whose cut maps to +i.
    a1 = (1 + z / R) / 2 and a2 = 1 - a1 give g1(0) = 1 and
    g1'(0) = -i (e - i j0).  At j1 = 0, R = +-z exactly (the sign of
    :func:`_upper_branch`), so (a1, a2) is exactly (1, 0) or (0, 1); at
    the double root R = 0 they are NaN.  Returns (z, R, a1, a2, phi1,
    phi2), elementwise in ``es``.
    """
    es = np.asarray(es, dtype=float)
    z = (es - e0) - 1j * (j0 - gamma)
    if j1 == 0:
        ratio = np.where(_upper_branch(es - e0, j0 - gamma), 1.0, -1.0)
        # adding 0.0 clears signed zeros, so arg R stays in (-pi/2, pi/2]
        r = ratio * z + 0.0
    else:
        # adding 0j turns a -0 imaginary part into +0: the cut maps to +i
        r = np.sqrt(z * z + (2.0 * j1 * gamma + 0j))
        ratio = np.divide(z, r, out=np.full(z.shape, np.nan, dtype=complex), where=r != 0)
    a1 = 0.5 * (1.0 + ratio)
    base = (es + e0) - 1j * (j0 + gamma)
    return z, r, a1, 1.0 - a1, -0.5j * (base + r), -0.5j * (base - r)


def analytic_green1_lorentzian(es, j0: float, j1: float, e0: float, gamma: float,
                               grid: TimeGrid) -> GreenSolution:
    """Closed form of g1 for the resonant kernel with infinite cut-off.

    g1(dt) = a1 exp(phi1 dt) + a2 exp(phi2 dt), the two branches of
    :func:`_resonant_branches` with R = sqrt(z^2 + 2 j1 gamma).  That
    constant is fixed by the kernel normalisation (j1 gamma / 2)
    exp(-(i e0 + gamma) s), which is itself validated against direct
    quadrature of the spectral density; the j1 -> 0 path returns the
    flat-background closed form exactly.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if j1 < 0 or j0 < 0:
        raise ValueError("spectral strengths must be nonnegative")
    es = np.asarray(es, dtype=float)
    if j1 == 0:
        sol = analytic_green_const(es, j0, grid)
        return GreenSolution(grid=grid, g1=sol.g1, g2=None)
    dt = (grid.times() - grid.t0)[:, None]
    z, r, a1, a2, phi1, phi2 = _resonant_branches(es, j0, j1, e0, gamma)
    bad = np.abs(r) ** 2 <= 1e-13 * (np.abs(z) ** 2 + 2.0 * j1 * gamma)
    if np.any(bad):
        k = int(np.argmax(bad))
        crit = -z[k] ** 2 / (2.0 * gamma)
        raise BranchSingularityError(
            f"degenerate characteristic roots at level {k} (e = {es[k]}): "
            f"critical j1 = {crit:.6g}", critical_j1=complex(crit))
    g1 = a1 * np.exp(phi1 * dt) + a2 * np.exp(phi2 * dt)
    g1[0] = 1.0
    return GreenSolution(grid=grid, g1=_embed_diagonal(g1), g2=None)


@dataclass(frozen=True)
class AmplitudePhase:
    """Two-branch decomposition g1 = a1 exp(phi1_rate dt) + a2 exp(phi2_rate dt).

    e_minus = e - e0, e_plus = e + e0, v = j0 - gamma, w = j0 + gamma.
    The branch root is R = sqrt((e_minus - i v)^2 + 4 j1 gamma): this j1
    is half the kernel j1 of :func:`analytic_green1_lorentzian` and
    :func:`solve_green`, so ``amplitude_phase(..., j1 / 2, ...)`` gives
    the branches of their g1.  c_mag = |R| and theta = arg(R^2) in
    (-pi, pi], so R = c_mag * exp(i theta / 2).  Both phase rates decay
    when w > c_mag.
    """

    a1: complex
    a2: complex
    phi1_rate: complex
    phi2_rate: complex
    c_mag: float
    theta: float
    e_minus: float
    e_plus: float
    v: float
    w: float

    @property
    def decays(self) -> bool:
        return self.w > self.c_mag

    @property
    def upper_branch(self) -> bool:
        """Level above the resonance: (a1, a2) = (1, 0) at j1 = 0, else (0, 1)."""
        return bool(_upper_branch(self.e_minus, self.v))


def _upper_branch(e_minus, v):
    """Whether the principal sqrt(z^2) is z for z = e_minus - i v (closed right half plane)."""
    return (e_minus > 0) | ((e_minus == 0) & (v <= 0))


def amplitude_phase(es_level: float, j0: float, j1: float, e0: float,
                    gamma: float) -> AmplitudePhase:
    """Amplitude and per-time phase coefficients of the two-branch form.

    The branches of :func:`_resonant_branches` at kernel strength 2 j1:
    this call alone puts sqrt(z^2 + 4 j1 gamma) on the amp-phase axis.
    a2 = 1 - a1 exactly, and the j1 = 0 path returns the endpoint
    amplitudes exactly.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    _, r, a1, a2, phi1, phi2 = _resonant_branches(es_level, j0, 2.0 * j1, e0, gamma)
    # arg R lies in (-pi/2, pi/2], so 2 arg R is arg(R^2) in (-pi, pi]
    return AmplitudePhase(a1=complex(a1), a2=complex(a2),
                          phi1_rate=complex(phi1), phi2_rate=complex(phi2),
                          c_mag=float(abs(r)), theta=float(2.0 * np.angle(r)),
                          e_minus=es_level - e0, e_plus=es_level + e0,
                          v=j0 - gamma, w=j0 + gamma)


@dataclass(frozen=True)
class CrossoverRow:
    j1: float
    abs_a1: float
    abs_a2: float
    phi1_rate: complex
    phi2_rate: complex
    decays: bool


def crossover_sweep(es_level: float, j0: float, e0: float, gamma: float,
                    j1_values) -> list[CrossoverRow]:
    """Scan the resonance strength and tabulate amplitudes and phase rates."""
    j1_values = np.asarray(j1_values, dtype=float)
    if j1_values.size == 0:
        raise ValueError("j1_values must be nonempty")
    if np.any(j1_values < 0):
        raise ValueError("j1 values must be nonnegative")
    rows = []
    for j1 in j1_values:
        ap = amplitude_phase(es_level, j0, float(j1), e0, gamma)
        rows.append(CrossoverRow(j1=float(j1), abs_a1=abs(ap.a1), abs_a2=abs(ap.a2),
                                 phi1_rate=ap.phi1_rate, phi2_rate=ap.phi2_rate,
                                 decays=ap.decays))
    return rows
