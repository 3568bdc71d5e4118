import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.signal
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from markovlab.linalg import DomainError
from markovlab.spectral import (
    BranchSingularityError,
    GreenProblem,
    SpectralDensity,
    StepSizeError,
    StepSizeWarning,
    TimeGrid,
    amplitude_phase,
    analytic_green1_lorentzian,
    analytic_green_const,
    kernel_on_grid,
    solve_green,
)
from markovlab.spectral import (
    _SERIES_THETA,
    _fast_len,
    _pole_powers,
    _pole_scan,
    _scaled_exp1,
    _solve_levels,
    _trapezoid_convolution,
)


# ------------------------------------------------------- spectral density


def spectral_eval(density, omega):
    """J(omega) as the SpectralDensity docstring defines it; scalars or arrays.

    The one written definition of J: both quadrature oracles below
    integrate it, and the closed-form kernels are checked against them.
    """
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


def test_constant_density():
    d = SpectralDensity.constant(0.2)
    assert spectral_eval(d, -3.7) == 0.2
    assert spectral_eval(d, 12.0) == 0.2


def test_lorentzian_peak_and_half_width():
    d = SpectralDensity.lorentzian(j0=0.1, j1=0.8, e0=1.5, gamma=0.3)
    assert abs(spectral_eval(d, 1.5) - 0.9) < 1e-15
    assert abs(spectral_eval(d, 1.5 + 0.3) - (0.1 + 0.4)) < 1e-15


def test_lorentzian_cutoff_window():
    d = SpectralDensity.lorentzian(j0=0.1, j1=0.8, e0=0.0, gamma=0.3, omega_cut=1.0)
    assert spectral_eval(d, 2.0) == 0.1
    assert spectral_eval(d, 0.5) > 0.1


def test_tabulated_interpolation():
    d = SpectralDensity.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert spectral_eval(d, 0.5) == 0.5
    assert spectral_eval(d, 5.0) == 0.0


def test_tabulated_rejects_bad_grid():
    with pytest.raises(ValueError, match="increasing"):
        SpectralDensity.tabulated([0.0, 0.0, 1.0], [0.0, 1.0, 0.0])


@pytest.mark.parametrize("omega, values, arg", [
    ([0.0, 1.0, 2.0], [0.0, 1.0], "values"),
    ([0.0, 0.0, 1.0], [0.0, 1.0, 0.0], "omega"),
    ([0.0], [1.0], "omega"),
    ([0.0, 1.0, 2.0], [0.0, -1.0, 0.0], "values"),
], ids=["length", "not-increasing", "one-point", "negative"])
def test_tabulated_table_errors_name_their_argument(omega, values, arg):
    with pytest.raises(DomainError) as err:
        SpectralDensity.tabulated(omega, values)
    assert err.value.arg == arg


# ---------------------------------------------------------- memory kernel


def _kernel_at(density, lag):
    return kernel_on_grid(density, np.array([lag]))[0]


def test_kernel_constant_is_pure_delta():
    d = SpectralDensity.constant(0.3)
    assert _kernel_at(d, 1.7) == 0.0
    assert d.delta_weight() == 0.3


def _bump_quadrature(density, omega, dt):
    # independent Fourier transform of the smooth part J - j0 of a
    # Lorentzian density over its window |w - e0| < omega.  QUADPACK also
    # samples the window's end points, so J is taken with the cut-off
    # lifted; inside the open window that is the same function.
    # Each half of the window is integrated on its own: over the whole
    # window a weighted QUADPACK call can accept a wrong first estimate at
    # large omega * dt.  The tight request makes QUADPACK report round-off
    # there; its value is still used, and each test's bound judges it.
    uncut = dataclasses.replace(density, omega_cut=math.inf)
    bump = lambda w: spectral_eval(uncut, w) - density.j0
    j1, gamma, e0 = density.j1, density.gamma, density.e0
    opts = dict(wvar=dt, limit=400, epsabs=1e-15 * j1 * gamma, epsrel=1e-13)
    total = 0.0j
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        for lo, hi in ((e0 - omega, e0), (e0, e0 + omega)):
            re = scipy.integrate.quad(bump, lo, hi, weight="cos", **opts)[0]
            im = scipy.integrate.quad(bump, lo, hi, weight="sin", **opts)[0]
            total += re - 1j * im
    return total / (2 * math.pi)


def test_kernel_lorentzian_closed_form_against_quadrature():
    j1, gamma, e0 = 1.0, 0.4, 0.9
    d = SpectralDensity.lorentzian(j0=0.2, j1=j1, e0=e0, gamma=gamma)
    for dt in (0.0, 0.7, 5.0 / gamma):
        oracle = _bump_quadrature(d, 1e3 * gamma, dt)
        # truncation tail of the oracle window is ~ j1 gamma^2 / (pi omega)
        assert abs(_kernel_at(d, dt) - oracle) < 3e-4
    assert d.delta_weight() == 0.2
    assert abs(_kernel_at(d, 0.0) - 0.5 * j1 * gamma) < 1e-12
    mag = abs(_kernel_at(d, 5.0 / gamma))
    assert abs(mag - 0.5 * j1 * gamma * math.exp(-5.0)) < 1e-12


def test_kernel_finite_cutoff_approaches_infinite_cutoff():
    d_inf = SpectralDensity.lorentzian(j0=0.0, j1=1.0, e0=0.5, gamma=0.3)
    d_fin = SpectralDensity.lorentzian(j0=0.0, j1=1.0, e0=0.5, gamma=0.3,
                                       omega_cut=2e3 * 0.3)
    for dt in (0.0, 1.1):
        a = _kernel_at(d_inf, dt)
        b = _kernel_at(d_fin, dt)
        assert abs(a - b) < 2e-4


@settings(max_examples=50, deadline=None)
@given(j1=st.floats(0.01, 3.0), gamma=st.floats(0.05, 3.0), e0=st.floats(-3.0, 3.0),
       cut_exp=st.floats(-2.0, 3.0), gamma_s=st.floats(1e-3, 300.0))
def test_kernel_finite_cutoff_closed_form_matches_quadrature(j1, gamma, e0, cut_exp,
                                                              gamma_s):
    # omega_cut / gamma from 1e-2 to 1e3; lag 0, a tiny lag, both signs
    cut = gamma * 10.0 ** cut_exp
    d = SpectralDensity.lorentzian(j0=0.0, j1=j1, e0=e0, gamma=gamma, omega_cut=cut)
    lags = np.array([0.0, 1e-8, gamma_s, -gamma_s, 300.0]) / gamma
    for lag, val in zip(lags, kernel_on_grid(d, lags)):
        assert abs(val - _bump_quadrature(d, cut, lag)) < 1e-12 * j1 * gamma
        assert abs(_kernel_at(d, lag) - val) < 1e-15 * j1 * gamma


@pytest.mark.parametrize("gamma_s", [2e3, 1e4])
def test_kernel_finite_cutoff_large_lag(gamma_s):
    # past |Re z| = 500 the exponential integrals take their asymptotic
    # series, and the window edges dominate the kernel
    j1, gamma, e0, cut = 0.7, 0.3, 0.4, 1.2
    s = gamma_s / gamma
    d = SpectralDensity.lorentzian(j0=0.0, j1=j1, e0=e0, gamma=gamma, omega_cut=cut)
    got = kernel_on_grid(d, np.array([s, -s]))
    assert np.isfinite(got).all()
    scale = j1 * gamma**2 / (2 * math.pi)
    lead = (math.pi * math.exp(-gamma_s) / gamma
            + 2 * math.sin(cut * s) / (s * (cut**2 + gamma**2)))
    # the next term of the expansion is at most 4 c / ((c^2 + gamma^2)^2 s^2)
    next_term = 4 * cut / ((cut**2 + gamma**2) ** 2 * s**2)
    assert abs(got[0] - scale * np.exp(-1j * e0 * s) * lead) <= 2 * scale * next_term
    assert abs(got[1] - np.conj(got[0])) < 1e-15 * scale


@settings(max_examples=300, deadline=None)
@given(angle=st.floats(-math.pi, 0.0, exclude_min=True), log_size=st.floats(-8.0, 4.0))
def test_scaled_exp1_matches_scipy(angle, log_size):
    z = 10.0 ** log_size * complex(math.cos(angle), math.sin(angle))
    # past |Re z| = 600 exp(z) or E1(z) is no longer a normal double
    assume(abs(z.real) <= 600.0)
    want = np.exp(z) * scipy.special.exp1(z)
    # scipy's exp1 itself is off by up to 1.7e-12 just inside |z| = 5
    assert abs(_scaled_exp1(np.array([z]))[0] - want) <= 5e-12 * abs(want)


#: exp(z) E1(z) by mpmath at 40 digits, on both sides of each seam of
#: _scaled_exp1: |z| + Re z = 4, |z| = 40 along the cut (z = -41.0369..
#: is a pole of the 45-level continued fraction), |Re z| = 500, and the
#: ends of the range.
EXP1_SEAMS = [
    ((1.4999999990000001-2.00000000075j), (0.2357426115730767+0.21572882860923667j)),
    ((1.5000000010000003-1.9999999992499997j), (0.2357426117209687+0.2157288283943082j)),
    ((-16.000000001-11.999999998666667j), (-0.04057156809192122+0.032651620356355444j)),
    ((-15.999999999-12.000000001333333j), (-0.040571568085993374+0.032651620363182865j)),
    ((-39.999999-0.01j), (-0.02565886175169863+6.588627762928325e-06j)),
    ((-40.000001-0.01j), (-0.02565886043397332+6.588627085672696e-06j)),
    ((-41.036931930855836-1e-12j), (-0.0249933991369213+6.298375899803086e-16j)),
    ((-500.000001-3j), (-0.002003943659887272+1.2047854803793666e-05j)),
    ((-499.999999-3j), (-0.0020039436679185948+1.204785490036734e-05j)),
    ((500.000001-3j), (0.00199594433192119+1.1951857108272873e-05j)),
    ((499.999999-3j), (0.0019959443398885235+1.195185720369459e-05j)),
    ((1e-08-1e-08j), (17.496891681593755+0.7853979862825131j)),
    ((3-4000j), (2.4999969531303907e-07+0.0002499997343753838j)),
    ((-10000-1e-06j), (-0.00010001000200060025+1.000200060024012e-14j)),
]


def test_scaled_exp1_at_the_seams():
    z, want = np.array(EXP1_SEAMS).T
    got = _scaled_exp1(z)
    assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all()


def test_kernel_tabulated_matches_lorentzian_samples():
    gamma, e0 = 0.5, 0.0
    om = np.linspace(-40.0, 40.0, 8001)
    d_tab = SpectralDensity.tabulated(om, gamma**2 / (om**2 + gamma**2))
    d_ref = SpectralDensity.lorentzian(j0=0.0, j1=1.0, e0=e0, gamma=gamma)
    assert d_tab.delta_weight() == 0.0
    assert abs(_kernel_at(d_tab, 0.8) - _kernel_at(d_ref, 0.8)) < 5e-3


def _table_quadrature(density, lag):
    # independent oracle: adaptive quadrature of J over each table segment
    om = density.table[0]
    opts = dict(epsabs=1e-13, epsrel=1e-12, limit=200)
    total = 0.0j
    for a, b in zip(om[:-1], om[1:]):
        re = scipy.integrate.quad(lambda w: spectral_eval(density, w) * math.cos(w * lag),
                                  a, b, **opts)[0]
        im = scipy.integrate.quad(lambda w: spectral_eval(density, w) * math.sin(w * lag),
                                  a, b, **opts)[0]
        total += re - 1j * im
    return total / (2 * math.pi)


@settings(max_examples=30, deadline=None)
@given(start=st.floats(-5.0, 5.0),
       widths=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=6),
       data=st.data())
def test_kernel_tabulated_closed_form_matches_quadrature(start, widths, data):
    om = start + np.concatenate(([0.0], np.cumsum(widths)))
    va = np.array(data.draw(st.lists(st.floats(0.0, 2.0), min_size=om.size,
                                     max_size=om.size)))
    d = SpectralDensity.tabulated(om, va)
    # lag 0, then each segment just below and just above the series branch
    w = np.diff(om)
    lags = np.concatenate(([0.0], 2 * _SERIES_THETA * (1 - 1e-9) / w,
                           2 * _SERIES_THETA * (1 + 1e-9) / w, [20.0 / w.max()]))
    on_grid = kernel_on_grid(d, lags)
    scale = 1e-13 * (1.0 + np.sum(w * np.maximum(va[1:], va[:-1])))
    for lag, val in zip(lags, on_grid):
        assert abs(val - _table_quadrature(d, lag)) < scale
        assert abs(_kernel_at(d, lag) - val) < 1e-14


# -------------------------------------------------------- volterra solver


def _volterra_march(m_coef, kern, h, g0, forcing):
    """Reference march of g' = m g - (kern * g)(t) + forcing with the trapezoid rule.

    The history convolution uses trapezoid weights and the corrector is
    solved in closed form (the update is linear in the unknown node), so
    the scheme is the fully converged predictor-corrector, global O(h^2).
    One O(k) history sum per step: O(n^2) in all.
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


def _march_levels(m_coef, kern, h, j0):
    """g1 and g2 of every level by the O(n^2) reference march, for any kernel."""
    ones = np.ones(m_coef.size, dtype=complex)
    g1 = _volterra_march(m_coef, kern, h, ones, None)
    h1 = g1.conj()
    forcing = j0 * h1
    if np.any(kern):
        forcing = forcing + _trapezoid_convolution(kern, h1, h)
    g2 = _volterra_march(m_coef, kern, h, np.zeros_like(ones), forcing)
    return g1, g2


def test_solve_green_constant_matches_exponential():
    es = np.array([1.0])
    j0 = 0.2
    grid = TimeGrid(0.0, 10.0, 10000)
    sol = solve_green(GreenProblem(es=es, density=SpectralDensity.constant(j0), grid=grid))
    g1 = sol.g1[:, 0, 0]
    expect = np.exp(-1j * (1.0 - 1j * j0) * (grid.times() - grid.t0))
    assert np.abs(g1 - expect).max() < 1e-6


def test_solve_green_zero_density_pure_phase():
    es = np.array([0.7, -1.3])
    sol = solve_green(GreenProblem(es=es, density=SpectralDensity.constant(0.0),
                                   grid=TimeGrid(0.0, 8.0, 2000)))
    for k in range(2):
        g1 = sol.g1[:, k, k]
        assert np.abs(np.abs(g1) - 1.0).max() < 1e-12


def test_solve_green_initial_values_exact():
    sol = solve_green(GreenProblem(es=np.array([1.0, 2.0]),
                                   density=SpectralDensity.lorentzian(0.1, 0.5, 1.0, 0.3),
                                   grid=TimeGrid(0.0, 2.0, 500)))
    assert np.abs(sol.g1[0] - np.eye(2)).max() == 0.0
    assert np.abs(sol.g2[0]).max() == 0.0


def test_solve_green_matches_lorentzian_closed_form():
    es = np.array([1.0])
    grid = TimeGrid(0.0, 10.0, 10000)
    dens = SpectralDensity.lorentzian(j0=0.1, j1=1.0, e0=1.0, gamma=0.2)
    num = solve_green(GreenProblem(es=es, density=dens, grid=grid))
    ana = analytic_green1_lorentzian(es, 0.1, 1.0, 1.0, 0.2, grid)
    assert np.abs(num.g1 - ana.g1).max() < 1e-3


def test_solve_green_second_order_convergence():
    es = np.array([1.0])
    dens = SpectralDensity.lorentzian(j0=0.1, j1=1.0, e0=1.0, gamma=0.2)
    errs = []
    for steps in (1000, 2000):
        grid = TimeGrid(0.0, 5.0, steps)
        num = solve_green(GreenProblem(es=es, density=dens, grid=grid))
        ana = analytic_green1_lorentzian(es, 0.1, 1.0, 1.0, 0.2, grid)
        errs.append(np.abs(num.g1 - ana.g1).max())
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_solve_green_constant_g2_matches_printed_form():
    # the numerical g2 must land on j0 exp(-j0 dt) sin(e dt) / e, which at
    # zero level energy is the printed form j0 * dt * g1
    j0 = 0.25
    es = np.array([0.0, 0.7, -1.3])
    grid = TimeGrid(0.0, 6.0, 6000)
    sol = solve_green(GreenProblem(es=es, density=SpectralDensity.constant(j0), grid=grid))
    ana = analytic_green_const(es, j0, grid)
    assert np.abs(sol.g2 - ana.g2).max() < 1e-5


@settings(max_examples=25, deadline=None)
@given(es=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
       j0=st.floats(0.0, 1.0), j1=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
       e0=st.floats(-3.0, 3.0), gamma=st.floats(0.05, 3.0),
       steps=st.integers(2, 2000), h_frac=st.floats(0.001, 0.999))
def test_recursive_march_matches_reference_march(es, j0, j1, e0, gamma, steps, h_frac):
    # the O(n) march for flat and single-exponential kernels runs the same
    # trapezoid scheme as the O(n^2) reference march
    es = np.array(es)
    density = (SpectralDensity.constant(j0) if j1 == 0.0
               else SpectralDensity.lorentzian(j0, j1, e0, gamma))
    scale = max(float(np.abs(es).max() + density.peak()), 1.0)
    grid = TimeGrid(0.0, h_frac * 0.1 / scale * steps, steps)
    sol = solve_green(GreenProblem(es=es, density=density, grid=grid), strict=True)
    kern = kernel_on_grid(density, grid.h * np.arange(steps + 1))
    ref = _march_levels(-(1j * es + j0), kern, grid.h, j0)
    for got, want in zip((sol.g1, sol.g2), ref):
        assert np.abs(np.diagonal(got, axis1=1, axis2=2) - want).max() < 1e-10


@st.composite
def _memory_densities(draw):
    """A tabulated density or a resonance with a finite cut-off."""
    if draw(st.booleans()):
        widths = draw(st.lists(st.floats(0.05, 2.0), min_size=1, max_size=10))
        om = draw(st.floats(-5.0, 5.0)) + np.concatenate(([0.0], np.cumsum(widths)))
        va = draw(st.lists(st.floats(0.0, 2.0), min_size=om.size, max_size=om.size))
        return SpectralDensity.tabulated(om, va)
    return SpectralDensity.lorentzian(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 3.0)),
                                      draw(st.floats(-3.0, 3.0)), draw(st.floats(0.05, 3.0)),
                                      omega_cut=draw(st.floats(0.05, 10.0)))


@settings(max_examples=30, deadline=None)
@given(es=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
       density=_memory_densities(), steps=st.integers(2, 2000),
       h_frac=st.floats(0.001, 0.999))
@example(es=[0.4, -1.1], density=SpectralDensity.tabulated([-3.0, 0.0, 1.5, 4.0],
                                                          [0.2, 1.0, 0.4, 0.0]),
         steps=4000, h_frac=0.9)
@example(es=[-0.8, 0.1, 1.3], density=SpectralDensity.lorentzian(0.2, 1.5, 0.3, 0.4, 1.6),
         steps=4000, h_frac=0.5)
def test_toeplitz_march_matches_reference_march(es, density, steps, h_frac):
    # the series-reciprocal solve for sampled kernels runs the same trapezoid
    # scheme as the O(n^2) reference march
    es = np.array(es)
    scale = max(float(np.abs(es).max() + density.peak()), 1.0)
    grid = TimeGrid(0.0, h_frac * 0.1 / scale * steps, steps)
    sol = solve_green(GreenProblem(es=es, density=density, grid=grid), strict=True)
    j0 = density.delta_weight()
    kern = kernel_on_grid(density, grid.h * np.arange(steps + 1))
    ref = _march_levels(-(1j * es + j0), kern, grid.h, j0)
    for got, want in zip((sol.g1, sol.g2), ref):
        assert np.abs(np.diagonal(got, axis1=1, axis2=2) - want).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4000), levels=st.integers(1, 3), sections=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
@example(n=16000, levels=2, sections=2, seed=0)
@example(n=16000, levels=3, sections=1, seed=1)
def test_pole_scan_matches_sosfilt(n, levels, sections, seed):
    # half of the poles on the unit circle, the rest anywhere inside it
    rng = np.random.default_rng(seed)
    shape = (levels, sections)
    radius = np.where(rng.random(shape) < 0.5, 1.0, 1.0 - 10.0 ** rng.uniform(-6.0, 0.0, shape))
    poles = radius * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
    sig = rng.normal(size=(levels, n)) + 1j * rng.normal(size=(levels, n))
    want = np.empty_like(sig)
    for lev in range(levels):
        sos = np.zeros((sections, 6), dtype=complex)
        sos[:, 0] = sos[:, 3] = 1.0
        sos[:, 4] = -poles[lev]
        want[lev] = scipy.signal.sosfilt(sos, sig[lev])
    got = _pole_scan(sig.copy(), _pole_powers(poles, n - 1))
    assert (np.abs(got - want).max(axis=1) <= 1e-13 * np.abs(want).max(axis=1)).all()


def test_fast_len_is_the_least_5_smooth_length():
    smooth = sorted(2**a * 3**b * 5**c for a in range(13) for b in range(8) for c in range(6))
    for n in range(1, 4001):
        assert _fast_len(n) == next(m for m in smooth if m >= n)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 600), levels=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_trapezoid_convolution_matches_per_level_fft(n, levels, seed):
    # one batched FFT pass does the same arithmetic as one FFT product per level
    rng = np.random.default_rng(seed)
    kern = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    sig = rng.normal(size=(n + 1, levels)) + 1j * rng.normal(size=(n + 1, levels))
    h = 0.01
    size = _fast_len(2 * n + 1)
    want = np.stack([np.fft.ifft(np.fft.fft(kern, size) * np.fft.fft(sig[:, lev], size))[: n + 1]
                     for lev in range(levels)], axis=1)
    want -= 0.5 * np.outer(kern, sig[0])
    want -= 0.5 * kern[0] * sig
    want *= h
    want[0] = 0.0
    assert np.array_equal(_trapezoid_convolution(kern, sig, h), want)


def test_solve_green_step_guard():
    prob = GreenProblem(es=np.array([50.0]), density=SpectralDensity.constant(0.2),
                        grid=TimeGrid(0.0, 10.0, 100))
    with pytest.warns(StepSizeWarning) as record:
        solve_green(prob)
    assert record[0].filename == __file__       # the warning names the caller
    with pytest.raises(StepSizeError):
        solve_green(prob, strict=True)


def _exact_levels(es, j0: float, j1: float, e0: float, gamma: float, grid: TimeGrid):
    """Exact g1 and g2, (T, n) each, for the kernel j0 delta(s) + a exp(-r s),
    a = j1 gamma / 2, r = i e0 + gamma (j1 = 0 is the flat background).

    With K the smooth part, u = K * g1, y = K * g2 and w = K * conj(g1),
    the two memory equations are the linear ODE z' = A z for z = (conj g1,
    conj u, g2, y, w) from z(0) = (1, 0, 0, 0, 0): one matrix exponential
    per time and level.
    """
    amp, rate = 0.5 * j1 * gamma, 1j * e0 + gamma
    m = -(1j * np.asarray(es, dtype=float) + j0)
    a = np.zeros((m.size, 5, 5), dtype=complex)
    a[:, 0, 0], a[:, 0, 1], a[:, 1, 0], a[:, 1, 1] = m.conj(), -1.0, amp, np.conj(-rate)
    a[:, 2, 0], a[:, 2, 2], a[:, 2, 3], a[:, 2, 4] = j0, m, -1.0, 1.0
    a[:, 3, 2], a[:, 3, 3] = amp, -rate
    a[:, 4, 0], a[:, 4, 4] = amp, -rate
    z = scipy.linalg.expm((grid.times() - grid.t0)[:, None, None, None] * a)[..., 0]
    return z[..., 0].conj(), z[..., 2]


def test_exact_levels_match_the_closed_forms():
    es, grid = np.array([0.0, 0.7, -1.3]), TimeGrid(0.0, 6.0, 300)
    g1, g2 = _exact_levels(es, 0.25, 0.0, 0.0, 1.0, grid)
    flat = analytic_green_const(es, 0.25, grid)
    assert np.abs(g1 - np.diagonal(flat.g1, axis1=1, axis2=2)).max() < 1e-12
    assert np.abs(g2 - np.diagonal(flat.g2, axis1=1, axis2=2)).max() < 1e-12
    g1, _ = _exact_levels(es, 0.1, 1.0, 1.0, 0.2, grid)
    resonant = analytic_green1_lorentzian(es, 0.1, 1.0, 1.0, 0.2, grid)
    assert np.abs(g1 - np.diagonal(resonant.g1, axis1=1, axis2=2)).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(es=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
       j0=st.floats(0.0, 1.0), j1=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
       e0=st.floats(-3.0, 3.0), gamma=st.floats(0.05, 3.0),
       steps=st.integers(64, 1000), h_frac=st.floats(0.01, 0.5))
def test_march_error_estimates_the_true_error(es, j0, j1, e0, gamma, steps, h_frac):
    # the step-halving estimate against the exact error of g1 and g2 on flat
    # and Lorentzian kernels; the absolute slack covers march roundoff
    es = np.array(es)
    density = (SpectralDensity.constant(j0) if j1 == 0.0
               else SpectralDensity.lorentzian(j0, j1, e0, gamma))
    scale = max(float(np.abs(es).max() + density.peak()), 1.0)
    grid = TimeGrid(0.0, h_frac * 0.1 / scale * steps, steps)
    g1, g2, estimate = _solve_levels(GreenProblem(es=es, density=density, grid=grid),
                                     estimate=True)
    want1, want2 = _exact_levels(es, j0, j1, e0, gamma, grid)
    error = max(np.abs(g1 - want1).max(), np.abs(g2 - want2).max())
    assert 0.9 * error - 1e-12 <= estimate <= 1.1 * error + 1e-12


def test_march_error_falls_fourfold_when_the_steps_double_on_a_finite_cut_off():
    density = SpectralDensity.lorentzian(0.2, 1.0, 0.1, 0.5, omega_cut=2.0)
    errors = [_solve_levels(GreenProblem(es=np.array([0.3, -0.6]), density=density,
                                         grid=TimeGrid(0.0, 4.0, steps)), estimate=True)[2]
              for steps in (160, 320, 640)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.8 < coarse / fine < 4.2


@pytest.mark.parametrize("density", [SpectralDensity.lorentzian(0.2, 1.0, 0.1, 0.5),
                                     SpectralDensity.lorentzian(0.2, 1.0, 0.1, 0.5, 2.0)],
                         ids=["recursive", "toeplitz"])
@pytest.mark.parametrize("steps", [2, 3, 4, 5, 9])
def test_march_error_compares_the_times_both_grids_share(density, steps):
    # the 2h march of an odd count covers the longest even prefix; below 4
    # steps the other march takes h / 2.  h = 1/64 keeps every grid end exact.
    h, es = 1.0 / 64.0, np.array([0.4, -0.9])

    def levels(n_steps, step):
        return _solve_levels(GreenProblem(es=es, density=density,
                                          grid=TimeGrid(0.0, n_steps * step, n_steps)))[:2]

    g1, g2, estimate = _solve_levels(GreenProblem(es=es, density=density,
                                                  grid=TimeGrid(0.0, steps * h, steps)),
                                     estimate=True)
    if steps >= 4:
        n = steps // 2
        ours, other, factor = (g1[:2 * n + 1:2], g2[:2 * n + 1:2]), levels(n, 2 * h), 1 / 3
    else:
        fine = levels(2 * steps, h / 2)
        ours, other, factor = (g1, g2), [g[::2] for g in fine], 4 / 3
    want = factor * max(np.abs(a - b).max() for a, b in zip(ours, other))
    assert estimate == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------- closed forms


def test_const_form_initial_and_zero_j0():
    grid = TimeGrid(0.0, 4.0, 100)
    sol = analytic_green_const(np.array([1.0, -0.5]), 0.0, grid)
    assert np.abs(sol.g1[0] - np.eye(2)).max() == 0.0
    assert np.abs(sol.g2[0]).max() == 0.0
    assert np.abs(np.abs(sol.g1) - np.eye(2)).max() < 1e-14


def test_const_form_log_magnitude_linear():
    grid = TimeGrid(0.0, 10.0, 1000)
    sol = analytic_green_const(np.array([1.3]), 0.4, grid)
    g1 = sol.g1[:, 0, 0]
    t = grid.times()
    resid = np.abs(np.log(np.abs(g1[1:])) + 0.4 * t[1:]).max()
    assert resid < 1e-9


def test_const_form_decay_value():
    grid = TimeGrid(0.0, 2.0, 2)
    sol = analytic_green_const(np.array([1.0]), 0.5, grid)
    g1, g2 = sol.g1[:, 0, 0], sol.g2[:, 0, 0]
    assert abs(abs(g1[-1]) - math.exp(-1.0)) < 1e-14
    # g2 = j0 exp(-j0 dt) sin(e dt) / e
    assert abs(g2[-1] - 0.5 * math.exp(-1.0) * math.sin(2.0)) < 1e-14


def test_lorentzian_form_j1_zero_is_exact_constant_form():
    grid = TimeGrid(0.0, 10.0, 200)
    a = analytic_green1_lorentzian(np.array([1.0]), 0.2, 0.0, 0.7, 0.3, grid)
    b = analytic_green_const(np.array([1.0]), 0.2, grid)
    assert np.array_equal(a.g1, b.g1)


def test_lorentzian_form_small_j1_limit():
    grid = TimeGrid(0.0, 10.0, 200)
    a = analytic_green1_lorentzian(np.array([1.0]), 0.2, 1e-14, 0.7, 0.3, grid)
    b = analytic_green_const(np.array([1.0]), 0.2, grid)
    assert np.abs(a.g1 - b.g1).max() < 1e-12


def test_lorentzian_form_small_gamma_limit():
    # the resonance decouples as its width closes; the propagator returns
    # to the flat-background exponential
    grid = TimeGrid(0.0, 10.0, 200)
    a = analytic_green1_lorentzian(np.array([1.0]), 0.2, 0.7, 0.4, 1e-12, grid)
    b = analytic_green_const(np.array([1.0]), 0.2, grid)
    assert np.abs(a.g1 - b.g1).max() < 1e-10


def test_lorentzian_form_oscillates():
    grid = TimeGrid(0.0, 20.0, 4000)
    sol = analytic_green1_lorentzian(np.array([1.0]), 0.1, 1.0, 1.0, 0.2, grid)
    g1 = sol.g1[:, 0, 0]
    slope_signs = np.sign(np.diff(np.abs(g1)))
    assert np.any(slope_signs[1:] != slope_signs[:-1])


def test_lorentzian_branch_singularity():
    # level on resonance: the roots collide at j1 = (gamma - j0)^2 / (2 gamma)
    j0, gamma = 0.1, 0.5
    j1_crit = (gamma - j0) ** 2 / (2 * gamma)
    with pytest.raises(BranchSingularityError) as err:
        analytic_green1_lorentzian(np.array([1.0]), j0, j1_crit, 1.0, gamma,
                                   TimeGrid(0.0, 1.0, 10))
    assert abs(err.value.critical_j1 - j1_crit) < 1e-12
    # the same threshold on the amp-phase axis, where j1 is half the kernel's
    with pytest.raises(BranchSingularityError) as err:
        amplitude_phase(1.0, j0, 0.5 * j1_crit, 1.0, gamma)
    assert abs(err.value.critical_j1 - 0.5 * j1_crit) < 1e-12


# -------------------------------------------------------- amplitude/phase


def test_amplitude_endpoints_exact():
    ap = amplitude_phase(1.5, 0.1, 0.0, 1.0, 0.2)
    assert abs(ap.a1) == 1.0
    assert abs(ap.a2) == 0.0


def test_amplitude_sum_is_one():
    rng = np.random.default_rng(12)
    for _ in range(30):
        ap = amplitude_phase(rng.normal(), abs(rng.normal()), abs(rng.normal()),
                             rng.normal(), abs(rng.normal()) + 0.1)
        # a2 is defined as the exact complement
        assert ap.a2 == 1.0 - ap.a1
        assert abs(ap.a1 + ap.a2 - 1.0) < 5e-16


def test_amplitude_c_at_zero_j1():
    ap = amplitude_phase(1.5, 0.1, 0.0, 1.0, 0.2)
    assert abs(ap.c_mag - math.hypot(ap.e_minus, ap.v)) < 1e-13


def test_amplitude_large_j1_half_half():
    ap0 = amplitude_phase(1.5, 0.1, 0.0, 1.0, 0.2)
    scale = max(abs(ap0.e_minus), abs(ap0.v), 0.2)
    ap = amplitude_phase(1.5, 0.1, 1e6 * scale, 1.0, 0.2)
    assert abs(abs(ap.a1) - 0.5) < 1e-2
    assert abs(abs(ap.a2) - 0.5) < 1e-2


def test_phase_rates_no_resonance_limit():
    # with j1 = 0 and vanishing width the two rates reduce to the
    # flat-background decay and a bare oscillation at the centre frequency
    e, j0, e0 = 1.5, 0.1, 1.0
    ap = amplitude_phase(e, j0, 0.0, e0, 1e-300)
    assert abs(ap.phi1_rate - (-1j * (e - 1j * j0))) < 1e-12
    assert abs(ap.phi2_rate - (-1j * e0)) < 1e-12


def test_phase_rate_sum_independent_of_j1():
    # the two characteristic roots always sum to the trace term, so the
    # real part of the summed rates stays at -w for every j1
    for j1 in np.logspace(-3, 5, 17):
        ap = amplitude_phase(1.5, 0.1, float(j1), 1.0, 0.2)
        total = ap.phi1_rate + ap.phi2_rate
        assert abs(total.real + ap.w) < 1e-10
        assert abs(total.imag + (1.5 + 1.0)) < 1e-10


def test_branch_reconstruction_matches_polar_form():
    # c_mag is |R| of the principal root that a1 = (1 + z / R) / 2 uses
    ap = amplitude_phase(0.8, 0.3, 0.9, 1.1, 0.4)
    z = ap.e_minus - 1j * ap.v
    r = np.sqrt(z * z + 4 * 0.9 * 0.4)
    assert abs(ap.c_mag - abs(r)) < 1e-12
    assert abs(ap.a1 - 0.5 * (1.0 + z / r)) < 1e-12


def _two_branch(ap, t):
    return ap.a1 * np.exp(ap.phi1_rate * t) + ap.a2 * np.exp(ap.phi2_rate * t)


@settings(max_examples=40, deadline=None)
@given(e=st.floats(-3.0, 3.0), j0=st.floats(0.0, 1.0), j1=st.floats(1e-3, 3.0),
       e0=st.floats(-3.0, 3.0), gamma=st.floats(0.05, 3.0))
def test_amplitude_phase_at_half_j1_reconstructs_closed_form(e, j0, j1, e0, gamma):
    # the amp-phase j1 axis is half the kernel j1 of the closed form
    grid = TimeGrid(0.0, 10.0, 200)
    try:
        ana = analytic_green1_lorentzian(np.array([e]), j0, j1, e0, gamma, grid)
    except BranchSingularityError:
        assume(False)
    rebuilt = _two_branch(amplitude_phase(e, j0, 0.5 * j1, e0, gamma), grid.times())
    assert np.abs(rebuilt - ana.g1[:, 0, 0]).max() < 1e-13


@pytest.mark.parametrize("e, j0, j1, e0, gamma", [
    (1.0, 0.1, 1.0, 1.0, 0.2),     # on resonance, oscillating
    (0.2, 0.05, 0.6, 0.8, 0.4),    # level below the resonance
    (1.5, 0.1, 0.05, 1.0, 0.6),    # weak resonance, decaying
])
def test_amplitude_phase_at_half_j1_matches_solve_green(e, j0, j1, e0, gamma):
    grid = TimeGrid(0.0, 10.0, 10000)
    density = SpectralDensity.lorentzian(j0=j0, j1=j1, e0=e0, gamma=gamma)
    num = solve_green(GreenProblem(es=np.array([e]), density=density, grid=grid))
    g1 = num.g1[:, 0, 0]
    t = grid.times()
    assert np.abs(_two_branch(amplitude_phase(e, j0, 0.5 * j1, e0, gamma), t) - g1).max() < 1e-3
    # at the same j1 the branches belong to a resonance twice as strong
    assert np.abs(_two_branch(amplitude_phase(e, j0, j1, e0, gamma), t) - g1).max() > 1e-2


def test_amplitude_phase_decay_flag_across_the_crossover():
    # w > |R| bounds |Im R|, so a decaying pair has both rates in the left half plane
    flags = set()
    for es_level, j1 in itertools.product((1.5, 1.0), np.logspace(-2, 6, 30)):
        ap = amplitude_phase(es_level, 0.1, float(j1), 1.0, 0.2)
        assert ap.decays == (ap.w > ap.c_mag)
        if ap.decays:
            assert ap.phi1_rate.real < 0 and ap.phi2_rate.real < 0
        assert abs(ap.a1) + abs(ap.a2) >= 1.0 - 1e-15
        flags.add(ap.decays)
    assert flags == {True, False}


def test_amplitude_phase_rejects_negative_j1():
    with pytest.raises(ValueError, match="nonnegative"):
        amplitude_phase(1.0, 0.1, -1.0, 1.0, 0.2)


@settings(max_examples=300, deadline=None)
@given(side=st.sampled_from([-1.0, 0.0, 1.0]), offset=st.floats(1e-3, 3.0),
       e0=st.floats(-3.0, 3.0), gamma=st.floats(0.05, 3.0),
       j0=st.one_of(st.none(), st.floats(0.0, 3.0)),
       j1=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e8)), min_size=1, max_size=12))
def test_amplitude_phase_over_an_array_equals_the_scalar_calls(side, offset, e0, gamma, j0, j1):
    # levels above, below and at e0; j0 = gamma (None) puts z = R = 0 at e = e0 and j1 = 0
    es_level = e0 + side * offset
    j0 = gamma if j0 is None else j0
    try:
        each = [amplitude_phase(es_level, j0, x, e0, gamma) for x in j1]
    except BranchSingularityError:
        with pytest.raises(BranchSingularityError):
            amplitude_phase(es_level, j0, np.array(j1), e0, gamma)
        return
    ap = amplitude_phase(es_level, j0, np.array(j1), e0, gamma)
    for name in ("a1", "a2", "phi1_rate", "phi2_rate", "c_mag", "decays"):
        want = np.array([getattr(one, name) for one in each])
        assert getattr(ap, name).tobytes() == want.tobytes(), name


def test_amplitude_phase_error_precedence():
    # over an array of j1: the domain, then the float range, then the double
    # root, whatever the order of the entries; only j1 > 0 enters the last two
    e, j0, e0, gamma = 1.0, 0.1, 1.0, 0.5
    crit = (gamma - j0) ** 2 / (4.0 * gamma)     # 0.08 on the amp-phase axis
    with pytest.raises(DomainError, match="nonnegative"):
        amplitude_phase(e, j0, [crit, 1e308, -1.0], e0, gamma)
    with pytest.raises(DomainError, match="float range") as err:
        amplitude_phase(e, j0, [crit, 1e308], e0, gamma)
    assert err.value.arg == "j1"
    with pytest.raises(BranchSingularityError, match="at e = 1.0: critical j1 = 0.08"):
        amplitude_phase(e, j0, [0.0, 1.0, crit], e0, gamma)
    # z = R = 0 at j1 = 0 with e = e0 and j0 = gamma: the exact endpoint, no error
    ap = amplitude_phase(e, gamma, [0.0, 1.0], e0, gamma)
    assert (abs(ap.a1[0]), abs(ap.a2[0])) == (1.0, 0.0)


# ----------------------------------------------------------------- grids


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 1)
    g = TimeGrid(0.0, 1.0, 4)
    assert g.h == 0.25
    assert np.allclose(g.times(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_kernel_on_grid_matches_pointwise():
    d = SpectralDensity.lorentzian(0.1, 0.8, 0.5, 0.3)
    lags = np.array([0.0, 0.4, 1.9])
    grid_vals = kernel_on_grid(d, lags)
    for lag, val in zip(lags, grid_vals):
        assert abs(val - _kernel_at(d, lag)) < 1e-14
