"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import numpy as np
import pytest

from markovlab.dynamics import (
    CompositeSpec,
    InitialState,
    distinguishability_witness,
    divisibility_defect,
    entangled_divisibility,
    entropy_sie_check,
    evolve,
    supermatrix,
)
from markovlab.linalg import validate_density_matrix
from markovlab.master import (
    commuting_block_evolution,
    effective_commutator_rhs,
    maximally_mixed_invariance,
)
from markovlab.sampling import (
    random_amplitudes,
    random_env_weights,
    random_hermitian,
    random_product_spec,
)
from markovlab.spectral import (
    GreenProblem,
    SpectralDensity,
    TimeGrid,
    amplitude_phase,
    analytic_green1_lorentzian,
    solve_green,
)


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_markovian_exponential_decay():
    es = np.array([1.0])
    j0 = 0.2
    grid = TimeGrid(0.0, 10.0, 10000)
    sol = solve_green(GreenProblem(es=es, density=SpectralDensity.constant(j0), grid=grid))
    g1 = sol.g1[:, 0, 0]
    t = grid.times()
    resid = float(np.abs(np.log(np.abs(g1[1:])) + j0 * (t[1:] - t[0])).max())
    report(1, resid < 1e-6,
           f"flat-background decay linear in log, residual {resid:.3e} < 1e-6")


def test_criterion_02_analytic_numeric_cross_validation():
    es = np.array([1.0])
    j0, j1, e0, gamma = 0.1, 1.0, 1.0, 0.2
    dens = SpectralDensity.lorentzian(j0, j1, e0, gamma)
    errs = []
    for steps in (10000, 20000):
        grid = TimeGrid(0.0, 10.0, steps)
        num = solve_green(GreenProblem(es=es, density=dens, grid=grid))
        ana = analytic_green1_lorentzian(es, j0, j1, e0, gamma, grid)
        errs.append(float(np.abs(num.g1 - ana.g1).max()))
    ratio = errs[0] / errs[1]
    ok = errs[0] < 1e-3 and 3.0 < ratio < 5.0
    report(2, ok, f"resonant closed form vs solver: dev {errs[0]:.3e} < 1e-3, "
                  f"halving ratio {ratio:.2f} ~ 4")


def test_criterion_03_crossover_endpoints():
    es_level, j0, e0, gamma = 1.5, 0.1, 1.0, 0.2
    ap0 = amplitude_phase(es_level, j0, 0.0, e0, gamma)
    scale = max(abs(ap0.e_minus), abs(ap0.v), gamma)
    ap_inf = amplitude_phase(es_level, j0, 1e6 * scale, e0, gamma)
    sum_defect = 0.0
    for j1 in np.logspace(-3, np.log10(1e6 * scale), 50):
        ap = amplitude_phase(es_level, j0, float(j1), e0, gamma)
        sum_defect = max(sum_defect, abs(ap.a1 + ap.a2 - 1.0))
    ok = (abs(ap0.a1) == 1.0 and abs(ap0.a2) == 0.0
          and abs(abs(ap_inf.a1) - 0.5) < 1e-2 and abs(abs(ap_inf.a2) - 0.5) < 1e-2
          and sum_defect < 1e-15)
    report(3, ok, f"|A1(0)| = {abs(ap0.a1)}, |A2(0)| = {abs(ap0.a2)}, "
                  f"|A1(inf)| = {abs(ap_inf.a1):.4f}, amplitude sum defect "
                  f"{sum_defect:.2e} at machine precision over 50 points")


def test_criterion_04_unique_environment_divisibility():
    rng = np.random.default_rng(401)
    worst = 0.0
    cases = 0
    for k in range(20):
        d_s = int(rng.integers(2, 5))
        base = random_product_spec(d_s, 1, rng)
        for strength in (0.1, 1.0, 10.0):
            spec = CompositeSpec(d_s=d_s, d_e=1, h_s=base.h_s, h_e=base.h_e,
                                 h_se=base.h_se, initial=base.initial,
                                 coupling_strength=strength)
            for _ in range(5):
                ts, t = np.sort(rng.uniform(0.05, 2.0, size=2))
                worst = max(worst, divisibility_defect(spec, 0.0, float(ts), float(t)))
                cases += 1
    report(4, worst < 1e-10 and cases == 300,
           f"one-state environment: worst defect {worst:.3e} < 1e-10 over {cases} cases")


def test_criterion_05_generic_non_divisibility():
    rng = np.random.default_rng(501)
    above = 0
    smallest = np.inf
    for k in range(20):
        spec = random_product_spec(2 + (k % 3), 2 + (k % 2), rng)
        defect = divisibility_defect(spec, 0.0, 0.7, 1.3)
        smallest = min(smallest, defect)
        if defect > 1e-4:
            above += 1
    report(5, above >= 18,
           f"generic environments: defect > 1e-4 in {above}/20 (smallest {smallest:.3e})")


def test_criterion_06_degeneracy_factorization():
    rng = np.random.default_rng(601)
    worst_defect = 0.0
    worst_comm = 0.0
    # coupling diagonal in the system eigenbasis
    h_s = random_hermitian(3, rng)
    w, v = np.linalg.eigh(h_s)
    h_se = v @ np.diag(rng.standard_normal(3)).astype(complex) @ v.conj().T
    spec_a = CompositeSpec(d_s=3, d_e=1, h_s=h_s, h_e=np.array([[0.7]]), h_se=h_se,
                           initial=InitialState.product(random_amplitudes(3, rng), np.eye(1)))
    # fully degenerate system spectrum, arbitrary coupling
    spec_b = CompositeSpec(d_s=3, d_e=1, h_s=np.eye(3), h_e=np.array([[0.2]]),
                           h_se=random_hermitian(3, rng),
                           initial=InitialState.product(random_amplitudes(3, rng), np.eye(1)))
    for spec in (spec_a, spec_b):
        # [H_S x 1 + 1 x H_E, V H_SE] = 0: U(t) factorises into free and coupling exponentials
        h0 = np.kron(spec.h_s, np.eye(spec.d_e)) + np.kron(np.eye(spec.d_s), spec.h_e)
        h_int = spec.coupling_strength * spec.h_se
        worst_comm = max(worst_comm, float(np.abs(h0 @ h_int - h_int @ h0).max()))
        for _ in range(5):
            ts, t = np.sort(rng.uniform(0.05, 2.0, size=2))
            worst_defect = max(worst_defect,
                               divisibility_defect(spec, 0.0, float(ts), float(t)))
    eps = np.linalg.eigvalsh(spec_b.h_s)
    pairs = [(j, k) for j in range(3) for k in range(j + 1, 3) if abs(eps[j] - eps[k]) < 1e-9]
    ok = worst_defect < 1e-10 and worst_comm < 1e-12 and pairs == [(0, 1), (0, 2), (1, 2)]
    report(6, ok, f"factorising couplings: commutator {worst_comm:.2e} < 1e-12, "
                  f"defect {worst_defect:.3e} < 1e-10, degenerate pairs listed")


def test_criterion_07_entangled_initial_conditions():
    rng = np.random.default_rng(701)
    worst_single = 0.0
    # amplitudes supported on one environment state, one-state environment
    for _ in range(5):
        a = random_amplitudes(3, rng).reshape(3, 1)
        spec = CompositeSpec(d_s=3, d_e=1, h_s=random_hermitian(3, rng),
                             h_e=random_hermitian(1, rng), h_se=random_hermitian(3, rng),
                             initial=InitialState.entangled(a))
        ts, t = np.sort(rng.uniform(0.05, 2.0, size=2))
        worst_single = max(worst_single,
                           entangled_divisibility(spec, 0.0, float(ts), float(t)))
    # single-state support with a coupling that never excites the
    # environment out of that state
    for _ in range(5):
        c = random_amplitudes(2, rng)
        a = np.zeros((2, 2), dtype=complex)
        a[:, 0] = c
        h_se = (np.kron(random_hermitian(2, rng), np.diag([1.0, 0.0]))
                + np.kron(random_hermitian(2, rng), np.diag([0.0, 1.0])))
        spec = CompositeSpec(d_s=2, d_e=2, h_s=random_hermitian(2, rng),
                             h_e=np.diag([0.3, 1.2]).astype(complex), h_se=h_se,
                             initial=InitialState.entangled(a))
        ts, t = np.sort(rng.uniform(0.05, 2.0, size=2))
        worst_single = max(worst_single,
                           entangled_divisibility(spec, 0.0, float(ts), float(t)))
    # maximally entangled amplitudes with generic couplings
    smallest_bell = np.inf
    a_bell = np.eye(2, dtype=complex) / np.sqrt(2)
    for _ in range(5):
        spec = CompositeSpec(d_s=2, d_e=2, h_s=random_hermitian(2, rng),
                             h_e=random_hermitian(2, rng), h_se=random_hermitian(4, rng),
                             initial=InitialState.entangled(a_bell))
        smallest_bell = min(smallest_bell,
                            entangled_divisibility(spec, 0.0, 0.7, 1.3))
    ok = worst_single < 1e-10 and smallest_bell > 1e-4
    report(7, ok, f"entangled data: single-state support defect {worst_single:.3e} "
                  f"< 1e-10, maximally entangled defect {smallest_bell:.3e} > 1e-4")


def test_criterion_08_entropy_flatness_and_rate_bound():
    rng = np.random.default_rng(801)
    worst_span = 0.0
    for _ in range(5):
        spec = random_product_spec(int(rng.integers(2, 5)), 1, rng,
                                   coupling_strength=float(rng.uniform(0.5, 8.0)))
        rep = entropy_sie_check(spec, TimeGrid(0.0, 3.0, 150))
        worst_span = max(worst_span, rep.entropy_span)
    worst_ratio = 0.0
    for _ in range(20):
        spec = random_product_spec(2, 2, rng)
        rep = entropy_sie_check(spec, TimeGrid(0.0, 3.0, 300))
        worst_ratio = max(worst_ratio, rep.max_rate / (rep.h_norm * np.log(2.0)))
    ok = worst_span < 1e-9 and worst_ratio <= 2.0
    report(8, ok, f"one-state env entropy span {worst_span:.3e} < 1e-9; "
                  f"rate/bound ratio {worst_ratio:.3f} <= 2")


def test_criterion_09_master_equation_commutator_form():
    rng = np.random.default_rng(901)
    worst_resid = 0.0
    worst_drift = 0.0
    for _ in range(5):
        spec = random_product_spec(3, 1, rng, coupling_strength=float(rng.uniform(0.5, 5)))
        w0 = np.sort(np.linalg.eigvalsh(spec.initial.rho_s0))
        for t in rng.uniform(0.0, 2.5, size=10):
            form = effective_commutator_rhs(spec, float(t))
            worst_resid = max(worst_resid, form.residual)
            w = np.sort(np.linalg.eigvalsh(evolve(spec, float(t)).rho_s))
            worst_drift = max(worst_drift, float(np.abs(w - w0).max()))
    ok = worst_resid < 1e-10 and worst_drift < 1e-9
    report(9, ok, f"commutator form residual {worst_resid:.3e} < 1e-10, "
                  f"spectrum drift {worst_drift:.3e} < 1e-9")


def test_criterion_10_commuting_block_oracle():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(10):
        d_s = int(rng.integers(2, 4))
        d_e = int(rng.integers(2, 4))
        h_se = np.zeros((d_s * d_e, d_s * d_e), dtype=complex)
        for a in range(d_e):
            proj = np.zeros((d_e, d_e))
            proj[a, a] = 1.0
            h_se += np.kron(random_hermitian(d_s, rng), proj)
        spec = CompositeSpec(
            d_s=d_s, d_e=d_e, h_s=random_hermitian(d_s, rng),
            h_e=np.diag(np.sort(rng.standard_normal(d_e))).astype(complex),
            h_se=h_se,
            initial=InitialState.product(random_amplitudes(d_s, rng),
                                         random_env_weights(d_e, rng)))
        result = commuting_block_evolution(spec, float(rng.uniform(0.5, 2.5)))
        worst = max(worst, result.residual)
    report(10, worst < 1e-10,
           f"commuting-coupling block mixture residual {worst:.3e} < 1e-10")


def test_criterion_11_maximally_mixed_invariance():
    rng = np.random.default_rng(1101)
    worst_state = 0.0
    worst_closure = 0.0
    worst_div = 0.0
    for _ in range(5):
        spec = CompositeSpec(
            d_s=2, d_e=3, h_s=random_hermitian(2, rng), h_e=random_hermitian(3, rng),
            h_se=random_hermitian(6, rng),
            initial=InitialState.mixed_product(np.eye(2) / 2, np.eye(3) / 3))
        inv = maximally_mixed_invariance(spec, TimeGrid(0.0, 2.0, 40))
        worst_state = max(worst_state, inv.max_defect)
        worst_closure = max(worst_closure, inv.unitarity_defect)
        # rho_S(ts) through the middle-segment map C(t, ts) against rho_S(t)
        ts, t = np.sort(rng.uniform(0.1, 2.0, size=2))
        mid = np.tensordot(evolve(spec, ts).rho_s, supermatrix(spec, t, ts))
        worst_div = max(worst_div, float(np.abs(mid - evolve(spec, t).rho_s).max()))
    ok = worst_state < 1e-12 and worst_closure < 1e-10 and worst_div < 1e-10
    report(11, ok, f"maximally mixed state: drift {worst_state:.3e} < 1e-12, "
                   f"closure identity {worst_closure:.3e} < 1e-10, "
                   f"state-level divisibility {worst_div:.3e} < 1e-10")


def test_criterion_12_state_validity_and_monotone_distance():
    rng = np.random.default_rng(1201)
    # state validity across representative problems from the other criteria
    specs = [
        random_product_spec(3, 1, rng, coupling_strength=10.0),
        random_product_spec(2, 3, rng),
        random_product_spec(2, 2, rng, coupling_strength=3.0),
        CompositeSpec(d_s=2, d_e=2, h_s=random_hermitian(2, rng),
                      h_e=random_hermitian(2, rng), h_se=random_hermitian(4, rng),
                      initial=InitialState.entangled(np.eye(2, dtype=complex) / np.sqrt(2))),
        CompositeSpec(d_s=2, d_e=3, h_s=random_hermitian(2, rng),
                      h_e=random_hermitian(3, rng), h_se=random_hermitian(6, rng),
                      initial=InitialState.mixed_product(np.eye(2) / 2, np.eye(3) / 3)),
    ]
    for spec in specs:
        for t in (0.4, 1.1, 2.3):
            res = evolve(spec, t)
            validate_density_matrix(res.rho_s)
            validate_density_matrix(res.rho_e)
    # one-state environment: distinguishability never grows
    worst_rate = -np.inf
    for _ in range(5):
        spec = random_product_spec(2, 1, rng, coupling_strength=float(rng.uniform(0.5, 5)))
        wit = distinguishability_witness(random_amplitudes(2, rng),
                                         random_amplitudes(2, rng),
                                         spec, TimeGrid(0.0, 3.0, 150))
        worst_rate = max(worst_rate, wit.max_rate)
    report(12, worst_rate < 1e-8,
           f"evolved states valid everywhere; one-state env distance slope "
           f"{worst_rate:.3e} < 1e-8")
