import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    crossover_sweep,
    kernel_on_grid,
    memory_kernel,
    solve_green,
    spectral_eval,
)
from markovlab.spectral import _SERIES_THETA, _march_levels


# ------------------------------------------------------- spectral density


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


# ---------------------------------------------------------- memory kernel


def test_kernel_constant_is_pure_delta():
    k = memory_kernel(SpectralDensity.constant(0.3), 1.7)
    assert k.smooth == 0.0
    assert k.delta_weight == 0.3


def _bump_quadrature(j1, gamma, e0, omega, dt):
    # independent Fourier transform of the resonance over |w - e0| < omega.
    # Each half of the window is integrated on its own: over the whole
    # window a weighted QUADPACK call can accept a wrong first estimate at
    # large omega * dt.  The tight request makes QUADPACK report round-off
    # there; its value is still used, and each test's bound judges it.
    bump = lambda w: j1 * gamma**2 / ((w - e0) ** 2 + gamma**2)
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
        got = memory_kernel(d, dt)
        oracle = _bump_quadrature(j1, gamma, e0, 1e3 * gamma, dt)
        # truncation tail of the oracle window is ~ j1 gamma^2 / (pi omega)
        assert abs(got.smooth - oracle) < 3e-4
        assert got.delta_weight == 0.2
    assert abs(memory_kernel(d, 0.0).smooth - 0.5 * j1 * gamma) < 1e-12
    mag = abs(memory_kernel(d, 5.0 / gamma).smooth)
    assert abs(mag - 0.5 * j1 * gamma * math.exp(-5.0)) < 1e-12


def test_kernel_finite_cutoff_approaches_infinite_cutoff():
    d_inf = SpectralDensity.lorentzian(j0=0.0, j1=1.0, e0=0.5, gamma=0.3)
    d_fin = SpectralDensity.lorentzian(j0=0.0, j1=1.0, e0=0.5, gamma=0.3,
                                       omega_cut=2e3 * 0.3)
    for dt in (0.0, 1.1):
        a = memory_kernel(d_inf, dt).smooth
        b = memory_kernel(d_fin, dt).smooth
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
        assert abs(val - _bump_quadrature(j1, gamma, e0, cut, lag)) < 1e-12 * j1 * gamma
        if lag >= 0:
            assert abs(memory_kernel(d, lag).smooth - val) < 1e-15 * j1 * gamma


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


def test_kernel_tabulated_matches_lorentzian_samples():
    gamma, e0 = 0.5, 0.0
    om = np.linspace(-40.0, 40.0, 8001)
    d_tab = SpectralDensity.tabulated(om, gamma**2 / (om**2 + gamma**2))
    d_ref = SpectralDensity.lorentzian(j0=0.0, j1=1.0, e0=e0, gamma=gamma)
    k_tab = memory_kernel(d_tab, 0.8)
    k_ref = memory_kernel(d_ref, 0.8)
    assert k_tab.delta_weight == 0.0
    assert abs(k_tab.smooth - k_ref.smooth) < 5e-3


def _table_quadrature(om, va, lag):
    # independent oracle: adaptive quadrature of each linear segment
    total = 0.0j
    for a, b, fa, fb in zip(om[:-1], om[1:], va[:-1], va[1:]):
        line = lambda w: fa + (fb - fa) * (w - a) / (b - a)
        opts = dict(epsabs=1e-13, epsrel=1e-12, limit=200)
        re = scipy.integrate.quad(lambda w: line(w) * math.cos(w * lag), a, b, **opts)[0]
        im = scipy.integrate.quad(lambda w: line(w) * math.sin(w * lag), a, b, **opts)[0]
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
        assert abs(val - _table_quadrature(om, va, lag)) < scale
        assert abs(memory_kernel(d, lag).smooth - val) < 1e-14


def test_kernel_rejects_negative_lag():
    with pytest.raises(ValueError, match="nonnegative"):
        memory_kernel(SpectralDensity.constant(0.1), -0.1)


# -------------------------------------------------------- volterra solver


def test_solve_green_constant_matches_exponential():
    es = np.array([1.0])
    j0 = 0.2
    grid = TimeGrid(0.0, 10.0, 10000)
    sol = solve_green(GreenProblem(es=es, density=SpectralDensity.constant(j0), grid=grid))
    g1, _ = sol.level(0)
    expect = np.exp(-1j * (1.0 - 1j * j0) * (grid.times() - grid.t0))
    assert np.abs(g1 - expect).max() < 1e-6


def test_solve_green_zero_density_pure_phase():
    es = np.array([0.7, -1.3])
    sol = solve_green(GreenProblem(es=es, density=SpectralDensity.constant(0.0),
                                   grid=TimeGrid(0.0, 8.0, 2000)))
    for k in range(2):
        g1, _ = sol.level(k)
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


def test_solve_green_step_guard():
    prob = GreenProblem(es=np.array([50.0]), density=SpectralDensity.constant(0.2),
                        grid=TimeGrid(0.0, 10.0, 100))
    with pytest.warns(StepSizeWarning):
        solve_green(prob)
    with pytest.raises(StepSizeError):
        solve_green(prob, strict=True)


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
    g1, _ = sol.level(0)
    t = grid.times()
    resid = np.abs(np.log(np.abs(g1[1:])) + 0.4 * t[1:]).max()
    assert resid < 1e-9


def test_const_form_decay_value():
    grid = TimeGrid(0.0, 2.0, 2)
    sol = analytic_green_const(np.array([1.0]), 0.5, grid)
    g1, g2 = sol.level(0)
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
    g1, _ = sol.level(0)
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
        assert abs(total.imag + ap.e_plus) < 1e-10


def test_theta_in_principal_interval():
    rng = np.random.default_rng(13)
    for _ in range(50):
        ap = amplitude_phase(rng.normal(), abs(rng.normal()), abs(rng.normal()),
                             rng.normal(), abs(rng.normal()) + 0.05)
        assert -math.pi < ap.theta <= math.pi


def test_branch_reconstruction_matches_polar_form():
    # c_mag * exp(i theta / 2) must be the principal root used by a1
    ap = amplitude_phase(0.8, 0.3, 0.9, 1.1, 0.4)
    z = ap.e_minus - 1j * ap.v
    r = np.sqrt(z * z + 4 * 0.9 * 0.4)
    assert abs(ap.c_mag * np.exp(0.5j * ap.theta) - r) < 1e-12


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
    assert np.abs(rebuilt - ana.level(0)[0]).max() < 1e-13


@pytest.mark.parametrize("e, j0, j1, e0, gamma", [
    (1.0, 0.1, 1.0, 1.0, 0.2),     # on resonance, oscillating
    (0.2, 0.05, 0.6, 0.8, 0.4),    # level below the resonance
    (1.5, 0.1, 0.05, 1.0, 0.6),    # weak resonance, decaying
])
def test_amplitude_phase_at_half_j1_matches_solve_green(e, j0, j1, e0, gamma):
    grid = TimeGrid(0.0, 10.0, 10000)
    density = SpectralDensity.lorentzian(j0=j0, j1=j1, e0=e0, gamma=gamma)
    num = solve_green(GreenProblem(es=np.array([e]), density=density, grid=grid))
    g1 = num.level(0)[0]
    t = grid.times()
    assert np.abs(_two_branch(amplitude_phase(e, j0, 0.5 * j1, e0, gamma), t) - g1).max() < 1e-3
    # at the same j1 the branches belong to a resonance twice as strong
    assert np.abs(_two_branch(amplitude_phase(e, j0, j1, e0, gamma), t) - g1).max() > 1e-2


def test_crossover_sweep_endpoints_and_decay_flag():
    j1s = np.concatenate(([0.0], np.logspace(-2, 6, 30)))
    rows = crossover_sweep(1.5, 0.1, 1.0, 0.2, j1s)
    assert rows[0].abs_a1 == 1.0 and rows[0].abs_a2 == 0.0
    assert abs(rows[-1].abs_a1 - 0.5) < 1e-2
    for row in rows:
        ap = amplitude_phase(1.5, 0.1, row.j1, 1.0, 0.2)
        assert row.decays == (ap.w > ap.c_mag)
        assert row.abs_a1 + row.abs_a2 >= 1.0 - 1e-15


def test_crossover_sweep_rejects_bad_input():
    with pytest.raises(ValueError, match="nonempty"):
        crossover_sweep(1.0, 0.1, 1.0, 0.2, [])
    with pytest.raises(ValueError, match="nonnegative"):
        crossover_sweep(1.0, 0.1, 1.0, 0.2, [-1.0])


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
        assert abs(val - memory_kernel(d, lag).smooth) < 1e-14
