"""Spectral densities, memory kernels and the level Green's functions.

A set of discrete levels with energies ``e_s`` couples to a broad
environment described by a spectral density J(omega).  The retarded-type
propagator G1 and the lesser-type propagator G2 (conventions in the
:class:`GreenSolution` docstring) obey memory-kernel equations

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
between decaying and oscillating regimes.  The march over n steps is a
lower-triangular Toeplitz solve for all levels at once, with no per-step
loop: O(n log n), as a recursive filter (pole power tables and log-depth
scans) for a zero or single-exponential smooth kernel, else as a power
series reciprocal by Newton doubling with FFT products.  Every kernel is
in closed form: the exponential of the infinite cut-off, exponential
integrals for a finite cut-off, and the exact transform of a tabulated
density's piecewise-linear interpolant; none uses adaptive quadrature.

The module needs numpy only: the exponential integral of the finite
cut-off is a power series, a continued fraction or an asymptotic series,
and the Toeplitz solve and its G2 convolution use ``numpy.fft``.

Layouts.  The public solutions (:class:`GreenSolution`) hold an n x n
diagonal matrix per grid point, shape (T, n, n), where T is the number
of grid points and n the number of levels.  The march and the closed
forms work on (T, n) level arrays; the scenarios write those directly,
and the public functions embed them as diagonals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from markovlab.linalg import DomainError

_KINDS = ("constant", "lorentzian", "tabulated")


class BranchSingularityError(DomainError):
    """The resonant closed form hits a double root of its characteristic polynomial."""

    def __init__(self, message: str, critical_j1: complex):
        super().__init__(message, "j1")
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
            raise DomainError("spectral strengths j0, j1 must be nonnegative",
                              "j0" if self.j0 < 0 else "j1")
        if self.kind == "lorentzian":
            if self.gamma <= 0:
                raise DomainError("resonance width gamma must be positive", "gamma")
            if self.omega_cut <= 0:
                raise DomainError("band cut-off omega_cut must be positive", "omega_cut")
        if self.kind == "tabulated":
            if self.table is None:
                raise ValueError("tabulated density needs a table")
            omega, values = self.table
            if len(omega) < 2 or np.any(np.diff(omega) <= 0):
                raise DomainError("table grid must be strictly increasing with >= 2 points",
                                  "omega")
            if np.any(np.asarray(values) < 0):
                raise DomainError("table values must be nonnegative", "values")

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
            raise DomainError("omega and value arrays must have the same length", "values")
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


#: f(z) = exp(z) E1(z) in the lower half plane takes one of three expansions.
#: - The asymptotic series sum_k (-1)^k k! / z^(k+1), 40 terms, within
#:   1e-16 relative for |z| >= 40: where |Re z| > 500, beyond which exp(z)
#:   or E1(z) leaves the double range (e^709), and next to the cut (inside
#:   the parabola |z| + Re z < 4) from |z| = 40 on.
#: - The power series -gamma_E - log z - sum_k (-z)^k / (k k!) next to the
#:   cut below |z| = 40, where it loses at most a factor e^4 to cancellation.
#: - Elsewhere the continued fraction 1 / (z + 1 - 1 / (z + 3 - 4 / (z + 5
#:   - ..))), which converges like exp(-4 sqrt(depth (|z| + Re z) / 2)):
#:   45 levels reach 1e-16.  Its approximants have poles along the cut, so
#:   it is never used next to it.
_ASYMPTOTIC_RE = 500.0
_SERIES_RADIUS = 40.0
_NEAR_CUT = 4.0
_FRACTION_DEPTH = 45
_ASYMPTOTIC_SERIES = [(-1) ** k * math.factorial(k) for k in range(39, -1, -1)]
_E1_SERIES = [(-1) ** k / (k * math.factorial(k)) for k in range(1, 142)]


def _scaled_exp1(z: np.ndarray) -> np.ndarray:
    """f(z) = exp(z) E1(z) for complex z with Im z <= 0, elementwise."""
    out = np.empty_like(z)
    size = np.abs(z)
    near_cut = size + z.real < _NEAR_CUT
    series = near_cut & (size < _SERIES_RADIUS)
    far = (np.abs(z.real) > _ASYMPTOTIC_RE) | (near_cut & ~series)
    fraction = ~(series | far)
    if far.any():
        inv = 1.0 / z[far]
        out[far] = inv * np.polyval(_ASYMPTOTIC_SERIES, inv)
    if series.any():
        near = z[series]
        # 3 |z| + 21 terms bring the series within 1e-17 relative
        power_sum = near * np.polyval(_E1_SERIES[int(3.0 * size[series].max()) + 20::-1], near)
        out[series] = np.exp(near) * (-np.euler_gamma - np.log(near) - power_sum)
    if fraction.any():
        rest = z[fraction]
        tail = rest + (2 * _FRACTION_DEPTH + 1)
        for k in range(_FRACTION_DEPTH, 0, -1):
            tail = rest + (2 * k - 1) - k * k / tail
        out[fraction] = 1.0 / tail
    return out


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
    plus, minus = _scaled_exp1(np.stack([z + gamma * s, z - gamma * s]))   # one pass for both
    tails = np.exp(1j * cut * s) * (plus - minus)
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
            raise DomainError(f"need t1 > t0, got [{self.t0}, {self.t1}]", "t1")
        if self.steps < 2:
            raise DomainError("need at least 2 steps", "steps")

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
            raise DomainError("es must be a nonempty finite 1-d array of level energies", "es")
        object.__setattr__(self, "es", es)


@dataclass(frozen=True)
class GreenSolution:
    """Diagonal propagator matrices on a time grid.

    The convention is G1 = i G_retarded and G2 = -i G_lesser.  ``g1[k]``
    and ``g2[k]`` are N x N matrices at grid point k; g1 starts at the
    identity and g2 at zero, exactly.  ``g2`` is None for closed forms
    that only describe the retarded component.
    """

    g1: np.ndarray
    g2: np.ndarray | None = None

    def __post_init__(self):
        if np.abs(self.g1[0] - np.eye(self.g1.shape[1])).max() != 0.0:
            raise ValueError("g1 must equal the identity exactly at t0")
        if self.g2 is not None and np.abs(self.g2[0]).max() != 0.0:
            raise ValueError("g2 must vanish exactly at t0")


def _embed_diagonal(levels: np.ndarray) -> np.ndarray:
    n_times, n_lev = levels.shape
    out = np.zeros((n_times, n_lev, n_lev), dtype=complex)
    idx = np.arange(n_lev)
    out[:, idx, idx] = levels
    return out


def _causal_product(x: np.ndarray, y: np.ndarray, count: int) -> np.ndarray:
    """First ``count`` terms of the convolution of x and y along axis 0: one FFT pass."""
    x, y = x[:count], y[:count]
    size = _fast_len(len(x) + len(y) - 1)
    return np.fft.ifft(np.fft.fft(x, size, axis=0) * np.fft.fft(y, size, axis=0),
                       axis=0)[:count]


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length the FFT splits into small factors."""
    best = 1 << (n - 1).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:
            # the least power of two times odd that reaches n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


def _trapezoid_convolution(kern: np.ndarray, sig: np.ndarray, h: float) -> np.ndarray:
    """h * trapezoid-weighted causal convolution of kern with each signal column."""
    out = _causal_product(kern[:, None], sig, len(kern))
    out -= 0.5 * np.outer(kern, sig[0])
    out -= 0.5 * kern[0] * sig
    out *= h
    out[0] = 0.0
    return out


def _series_reciprocal(col: np.ndarray) -> np.ndarray:
    """The first len(col) power-series terms of 1 / col(z), for each column.

    Newton doubling: for b = 1 / col mod z^k and col b = 1 + z^k e mod
    z^(2k), b (2 - col b) = b - z^k b e = 1 / col mod z^(2k).
    """
    inv = 1.0 / col[:1]
    while len(inv) < len(col):
        k = len(inv)
        err = _causal_product(col, inv, min(2 * k, len(col)))[k:]
        inv = np.concatenate([inv, -_causal_product(inv, err, len(err))])
    return inv


def _toeplitz_levels(m_coef: np.ndarray, kern: np.ndarray, h: float,
                     j0: float) -> tuple[np.ndarray, np.ndarray]:
    """g1 and g2 of every level by the trapezoid march, for any sampled kernel.

    g_{k+1} - g_k = p (f_k + f_{k+1}), p = h / 2, f = m g - S + d, with S
    the trapezoid sum of K * g (S_0 = 0), is the Toeplitz system
    sum_j a_j g_{k+1-j} = r_k in g_1 .. g_n, so g is the power series
    (1 / a) r: a_0 = 1 - p m + p^2 K_0, a_1 = -(1 + p m) + p h (K_1 + K_0)
    - p^2 K_0, a_j = p h (K_j + K_{j-1}) for j >= 2, and r_k = p (d_k +
    d_{k+1}) - p^2 (K_k + K_{k+1}) g_0 + [k = 0] (1 + p m + p^2 K_0) g_0.
    g1 has g_0 = 1, d = 0; g2 has g_0 = 0, d = j0 h1 + K * h1, h1 = conj(g1).
    """
    p = 0.5 * h
    col = np.empty((kern.size - 1, m_coef.size), dtype=complex)
    col[1:] = (p * h * (kern[1:-1] + kern[:-2]))[:, None]
    col[0] = 1.0 - p * m_coef + p * p * kern[0]
    col[1] -= 1.0 + p * m_coef + p * p * kern[0]
    inv = _series_reciprocal(col)
    rhs = np.repeat(-p * p * (kern[:-1] + kern[1:])[:, None], m_coef.size, axis=1)
    rhs[0] += 1.0 + p * m_coef + p * p * kern[0]
    g1 = np.concatenate([np.ones((1, m_coef.size)), _causal_product(inv, rhs, len(rhs))])
    h1 = g1.conj()
    drive = j0 * h1 + _trapezoid_convolution(kern, h1, h)
    rhs = p * (drive[:-1] + drive[1:])
    return g1, np.concatenate([np.zeros((1, m_coef.size)), _causal_product(inv, rhs, len(rhs))])


def _recursive_levels(m_coef: np.ndarray, amp: complex, rate: complex, h: float,
                      j0: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The march of :func:`_toeplitz_levels` for the kernel amp * exp(-rate s).

    On the grid the kernel is amp q^j, q = exp(-rate h), so the history sum
    H_k = sum_{j<k} amp q^(k-j) g_j obeys H_k = q (H_{k-1} + amp g_{k-1})
    and the march is a constant-coefficient recurrence.  In powers of the
    delay z, with p = h / 2, P = 1 - q z and Q = p amp (1 + q z) (Q / P is
    the trapezoid kernel sum), g_{k+1} - g_k = p (f_k + f_{k+1}) reads

        [(1 - z) P - p (1 + z) (m P - Q)] g = r P + p (1 + z) (Q_0 g_0 + P d)

    with g_0 and the forcing d as there and r = g_0 - p f_0.  Without a
    kernel P = 1, Q = 0 (the Cayley filter).
    The poles lie O(h) from z = 1, where a direct-form denominator loses
    its O(h^2) coefficients to rounding, so the filter runs as first-order
    sections with poles (1 + p mu) / (1 - p mu): mu = m without a kernel,
    else the roots of mu^2 + (kappa (1 + amp p^2) - m) mu + amp - m kappa,
    q = (1 - p kappa) / (1 + p kappa), whose coefficients are O(1).
    Its values are not finite where the discriminant of that quadratic leaves
    the float range, as for level energies or j1 gamma h beyond about 1e154.
    """
    p = 0.5 * h
    if amp == 0:
        big_p, big_q = np.array([1.0, 0.0]), np.zeros(2)
        mu = m_coef[:, None]
    else:
        q = np.exp(-rate * h)
        kappa = np.tanh(0.5 * rate * h) / p
        big_p, big_q = np.array([1.0, -q]), p * amp * np.array([1.0, q])
        # both roots of mu^2 + b mu + c, the larger first to avoid cancellation
        b, c = kappa * (1.0 + amp * p * p) - m_coef, amp - m_coef * kappa
        s = np.sqrt(b * b - 4.0 * c)
        big = -0.5 * (b + np.where((np.conj(b) * s).real < 0, -s, s))
        mu = np.stack([big, c / big], axis=1)          # Re b > 0, so big != 0
    poles = (1.0 + p * mu) / (1.0 - p * mu)
    lead = (1.0 - p * (m_coef - big_q[0]))[:, None]    # the z^0 coefficient
    numer = ((1.0 - p * m_coef)[:, None] * big_p + p * big_q[0]) / lead
    powers = _pole_powers(poles, steps)
    # through the first section the impulse response is numer(z) times its pole's powers
    g1 = numer[:, :1] * powers[0]
    g1[:, 1:] += numer[:, 1:] * powers[0, :, :-1]
    g1 = _pole_scan(g1, powers[1:])
    g1[:, 0] = 1.0
    h1 = g1.conj()
    numer = p * np.convolve((1.0, 1.0), j0 * big_p + big_q) / lead
    g2 = numer[:, :1] * h1
    for lag in (1, 2):
        g2[:, lag:] += numer[:, lag:lag + 1] * h1[:, :-lag]
    g2[:, :2] -= p * (j0 * big_p + big_q[0]) / lead    # Q_0 (1 + z) g_0 with h1_0 = 1
    return g1.T, _pole_scan(g2, powers).T


def _pole_powers(poles: np.ndarray, steps: int) -> np.ndarray:
    """pole^k, k = 0 .. steps, per pole column, by products whose errors add like a random walk."""
    table = np.empty((*poles.T.shape, steps + 1), dtype=complex)
    table[:, :, 0] = 1.0
    table[:, :, 1:] = poles.T[:, :, None]
    return np.multiply.accumulate(table, axis=2, out=table)


def _pole_scan(rows: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Filter rows in place by 1 / prod(1 - pole z), one log-depth scan per pole:
    after the passes with shifts 1, 2, .., s, entry k is sum_{j < 2s} pole^j x_{k-j}.
    Every pass forms its products in one buffer."""
    n = rows.shape[1]
    product = np.empty_like(rows)
    for power in powers:
        shift = 1
        while shift < n:
            np.multiply(power[:, shift:shift + 1], rows[:, :-shift], out=product[:, shift:])
            rows[:, shift:] += product[:, shift:]
            shift *= 2
    return rows


def _solve_levels(problem: GreenProblem, strict: bool = False, stacklevel: int = 2,
                  estimate: bool = False) -> tuple:
    """g1 and g2 of every level, (T, n) each: the march of :func:`solve_green`,
    then :func:`_march_error` with ``estimate`` (else None).

    A :class:`StepSizeWarning` names the frame ``stacklevel`` levels up.
    """
    grid = problem.grid
    h = grid.h
    scale = float(np.max(np.abs(problem.es)) + problem.density.peak())
    if h * scale >= 0.1:
        msg = (f"step h = {h:.3e} is coarse for energy scale {scale:.3e} "
               f"(h * scale = {h * scale:.3e} >= 0.1)")
        if strict:
            raise StepSizeError(msg)
        warnings.warn(msg, StepSizeWarning, stacklevel=stacklevel)
    with np.errstate(all="ignore"):    # a value beyond the float range fails below
        g1, g2, kern = _march(problem, h, grid.steps)
        if not (np.isfinite(g1).all() and np.isfinite(g2).all()):
            density = problem.density    # name the largest of the scales that form the march
            scales = {"es": np.abs(problem.es).max(), "j0": density.j0,
                      "j1": density.j1, "gamma": density.gamma}
            raise DomainError("the march leaves the float range", max(scales, key=scales.get))
        return g1, g2, _march_error(problem, g1, g2, kern) if estimate else None


def _march(problem: GreenProblem, h: float, steps: int, kern: np.ndarray | None = None):
    """g1, g2 and the sampled smooth kernel on ``steps`` steps of ``h``: the
    recursive filter for an exponential kernel (None), else the Toeplitz
    solve of ``kern``, sampled at lags 0, h, .., steps h where not given."""
    j0 = problem.density.delta_weight()
    m_coef = -(1j * problem.es + j0)
    form = _exponential_form(problem.density)
    if form is not None:
        g1, g2 = _recursive_levels(m_coef, *form, h, j0, steps)
    else:
        if kern is None:
            kern = kernel_on_grid(problem.density, h * np.arange(steps + 1))
        g1, g2 = _toeplitz_levels(m_coef, kern, h, j0)
    g1[0] = 1.0
    g2[0] = 0.0
    return g1, g2, kern


def _march_error(problem: GreenProblem, g1: np.ndarray, g2: np.ndarray,
                 kern: np.ndarray | None) -> float:
    """Step-halving estimate of the largest error of g1 and g2: the trapezoid
    march has an O(h^2) error expansion (Linz, Analytical and Numerical Methods
    for Volterra Equations, SIAM 1985, ch. 7), so it is |g(h) - g(2h)| / 3 on
    the longest even prefix, the 2h march taking every other sample of
    ``kern``, or (4/3) |g(h) - g(h/2)| below 4 steps.  Off the float range, inf.
    """
    h, steps = problem.grid.h, problem.grid.steps
    if steps >= 4:
        n = steps // 2
        other = _march(problem, 2.0 * h, n, None if kern is None else kern[:2 * n + 1:2])[:2]
        pairs, factor = zip((g1[:2 * n + 1:2], g2[:2 * n + 1:2]), other), 1.0 / 3.0
    else:
        fine = _march(problem, 0.5 * h, 2 * steps)[:2]
        pairs, factor = zip((g1, g2), (g[::2] for g in fine)), 4.0 / 3.0
    error = factor * np.max([np.abs(a - b).max() for a, b in pairs])
    return float(error) if np.isfinite(error) else math.inf


def solve_green(problem: GreenProblem, strict: bool = False) -> GreenSolution:
    """Numerical solution of the two memory-kernel equations.

    The delta part of the kernel acts as a local decay term -J0 * G with
    full weight from the first step on, so a flat spectral density
    reproduces the pure exponential solution to discretisation accuracy.
    The G2 equation is driven by the conjugate of the already computed
    G1 history.  Both use the trapezoid march: a recursive filter for a
    single exponential or zero smooth kernel, else a Toeplitz solve.
    """
    g1, g2, _ = _solve_levels(problem, strict, stacklevel=3)
    return GreenSolution(g1=_embed_diagonal(g1), g2=_embed_diagonal(g2))


def analytic_green_const(es, j0: float, grid: TimeGrid) -> GreenSolution:
    """Closed form for a flat spectral density.

    g1 = exp(-i (e - i j0) dt) decays at rate j0.  g2 solves the g2
    equation driven by j0 conj(g1):

        g2 = j0 exp(-j0 dt) sin(e dt) / e,

    which is j0 dt exp(-j0 dt) at e = 0.  Only there does it equal the
    linear-in-time form j0 dt g1.
    """
    SpectralDensity.constant(j0)          # the domain of j0 is the density's
    g1, g2 = _const_levels(np.asarray(es, dtype=float), j0, grid)
    return GreenSolution(g1=_embed_diagonal(g1), g2=_embed_diagonal(g2))


def _const_levels(es: np.ndarray, j0: float, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """g1 and g2 of :func:`analytic_green_const`, (T, n) each."""
    dt = grid.times() - grid.t0
    g1 = np.exp(-1j * np.outer(dt, es - 1j * j0))
    # sin(e dt) / e = dt sinc(e dt / pi), exact at e = 0
    g2 = (j0 * dt * np.exp(-j0 * dt))[:, None] * np.sinc(np.outer(dt, es) / np.pi)
    g1[0] = 1.0
    g2[0] = 0.0
    return g1, g2


def _resonant_branches(es, j0: float, j1: float, e0: float, gamma: float,
                       axis: float = 1.0):
    """Both branches of the resonant g1 = a1 exp(phi1 dt) + a2 exp(phi2 dt).

    For the kernel (axis j1 gamma / 2) exp(-(i e0 + gamma) s), with
    z = (e - e0) - i (j0 - gamma) and base = (e + e0) - i (j0 + gamma),
    the characteristic roots are phi1,2 = -(i/2) (base +- R) for the
    principal root R = sqrt(z^2 + 2 axis j1 gamma), whose cut maps to +i.
    ``axis`` is 1 for the kernel j1 and 2 for the amp-phase j1.
    a1 = (1 + z / R) / 2 and a2 = 1 - a1 give g1(0) = 1 and
    g1'(0) = -i (e - i j0).  At j1 = 0, R = +-z exactly (the sign of
    :func:`_upper_branch`), so (a1, a2) is exactly (1, 0) or (0, 1).
    For j1 > 0 the branches merge where |R|^2 <= 1e-13 (|z|^2 + 2 axis
    j1 gamma), and :class:`BranchSingularityError` names the critical
    j1 = -z^2 / (2 axis gamma) on the caller's axis.  Where z^2, 2 axis j1
    gamma or their sum leaves the float range, a DomainError names the
    largest of es, e0, j0, gamma and j1.  Returns (R, a1, a2, phi1,
    phi2), elementwise in ``es``.
    """
    es = np.asarray(es, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        z = (es - e0) - 1j * (j0 - gamma)
        zz = z * z
        strength = 2.0 * axis * j1 * gamma
        size = np.abs(zz) + strength     # bounds |R^2|
    if j1 == 0:
        ratio = np.where(_upper_branch(es - e0, j0 - gamma), 1.0, -1.0)
        # adding 0.0 clears signed zeros, so arg R stays in (-pi/2, pi/2]
        r = ratio * z + 0.0
    else:
        if not np.isfinite(size).all():
            scales = {"es": np.abs(es).max(), "e0": abs(e0), "j0": j0, "gamma": gamma,
                      "j1": j1}
            raise DomainError("R^2 = ((e - e0) - i (j0 - gamma))^2 + 2 axis j1 gamma "
                              "leaves the float range", max(scales, key=scales.get))
        # adding 0j turns a -0 imaginary part into +0: the cut maps to +i
        rr = zz + (strength + 0j)
        r = np.sqrt(rr)
        bad = np.abs(rr) <= 1e-13 * size
        if np.any(bad):
            k = int(np.argmax(bad))
            crit = -np.ravel(z)[k] ** 2 / (2.0 * axis * gamma)
            raise BranchSingularityError(
                f"degenerate characteristic roots at level {k} (e = {np.ravel(es)[k]}): "
                f"critical j1 = {crit:.6g}", critical_j1=complex(crit))
        ratio = z / r
    a1 = 0.5 * (1.0 + ratio)
    base = (es + e0) - 1j * (j0 + gamma)
    return r, a1, 1.0 - a1, -0.5j * (base + r), -0.5j * (base - r)


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
    SpectralDensity.lorentzian(j0, j1, e0, gamma)   # the domain is the density's
    g1 = _lorentzian_levels(np.asarray(es, dtype=float), j0, j1, e0, gamma, grid)
    return GreenSolution(g1=_embed_diagonal(g1), g2=None)


def _lorentzian_levels(es: np.ndarray, j0: float, j1: float, e0: float, gamma: float,
                       grid: TimeGrid) -> np.ndarray:
    """g1 of :func:`analytic_green1_lorentzian`, (T, n)."""
    if j1 == 0:
        return _const_levels(es, j0, grid)[0]
    dt = (grid.times() - grid.t0)[:, None]
    _, a1, a2, phi1, phi2 = _resonant_branches(es, j0, j1, e0, gamma)
    g1 = a1 * np.exp(phi1 * dt) + a2 * np.exp(phi2 * dt)
    g1[0] = 1.0
    return g1


@dataclass(frozen=True)
class AmplitudePhase:
    """Two-branch decomposition g1 = a1 exp(phi1_rate dt) + a2 exp(phi2_rate dt).

    e_minus = e - e0, v = j0 - gamma, w = j0 + gamma.
    The branch root is R = sqrt((e_minus - i v)^2 + 4 j1 gamma): this j1
    is half the kernel j1 of :func:`analytic_green1_lorentzian` and
    :func:`solve_green`, so ``amplitude_phase(..., j1 / 2, ...)`` gives
    the branches of their g1.  c_mag = |R|, and both phase rates decay
    when w > c_mag.  The branches merge where R vanishes (e_minus = 0 and
    j1 = v^2 / (4 gamma)); :func:`amplitude_phase` raises
    :class:`BranchSingularityError` wherever |R|^2 <= 1e-13
    (|e_minus - i v|^2 + 4 j1 gamma).
    """

    a1: complex
    a2: complex
    phi1_rate: complex
    phi2_rate: complex
    c_mag: float
    e_minus: float
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

    The branches of :func:`_resonant_branches` on axis 2: this call alone
    puts sqrt(z^2 + 4 j1 gamma) on the amp-phase axis.  a2 = 1 - a1
    exactly, and the j1 = 0 path returns the endpoint amplitudes exactly.
    """
    SpectralDensity.lorentzian(j0, j1, e0, gamma)   # the domain is the density's
    r, a1, a2, phi1, phi2 = _resonant_branches(es_level, j0, j1, e0, gamma, axis=2.0)
    return AmplitudePhase(a1=complex(a1), a2=complex(a2),
                          phi1_rate=complex(phi1), phi2_rate=complex(phi2),
                          c_mag=float(abs(r)), e_minus=es_level - e0,
                          v=j0 - gamma, w=j0 + gamma)
