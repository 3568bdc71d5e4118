import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovlab import dynamics
from markovlab.dynamics import (
    CompositeSpec,
    InitialState,
    build_total_hamiltonian,
    distinguishability_witness,
    divisibility_defect,
    entangled_divisibility,
    entropy_sie_check,
    environment_stationarity,
    evolve,
    supermatrix,
)
from markovlab.linalg import (
    partial_trace_env,
    partial_trace_sys,
    tensor_product,
    trace_distance,
    trace_env_factored,
    trace_sys_factored,
    validate_density_matrix,
    von_neumann_entropy,
)
from markovlab.sampling import (
    random_amplitudes,
    random_env_weights,
    random_hermitian,
    random_product_spec,
)
from markovlab.spectral import TimeGrid


def supermatrix_loop_oracle(u, d, d_s, d_e):
    """Brute-force evaluation of the four-index map, explicit loops."""
    c = np.zeros((d_s, d_s, d_s, d_s), dtype=complex)
    for i1 in range(d_s):
        for i2 in range(d_s):
            for j1 in range(d_s):
                for j2 in range(d_s):
                    acc = 0.0j
                    for a1 in range(d_e):
                        for a2 in range(d_e):
                            for g in range(d_e):
                                acc += (d[a1, a2]
                                        * u[j1 * d_e + g, i1 * d_e + a1]
                                        * np.conj(u[j2 * d_e + g, i2 * d_e + a2]))
                    c[i1, i2, j1, j2] = acc
    return c


# -------------------------------------------------------- initial states


def test_initial_state_validation():
    with pytest.raises(ValueError, match="normalized"):
        InitialState.product([1.0, 1.0], np.eye(2) / 2)
    with pytest.raises(ValueError, match="Hermitian"):
        InitialState.product([1.0, 0.0], np.array([[0.5, 0.4], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="normalized"):
        InitialState.entangled(np.ones((2, 2)))


def test_initial_state_env_weights_and_purity():
    rng = np.random.default_rng(0)
    a = random_amplitudes(4, rng).reshape(2, 2)
    st = InitialState.entangled(a)
    d_eff = st.env_weights()
    assert abs(np.trace(d_eff) - 1.0) < 1e-12
    # reduced environment state of a pure composite state is pure only
    # for product amplitudes
    st_prod = InitialState.product([1.0, 0.0], np.diag([0.3, 0.7]).astype(complex))
    assert st_prod.env_purity_defect() > 0.1
    st_pure = InitialState.product([1.0, 0.0], np.diag([1.0, 0.0]).astype(complex))
    assert st_pure.env_purity_defect() < 1e-14


def test_spec_rejects_non_hermitian_and_oversize():
    rng = np.random.default_rng(1)
    init = InitialState.product([1.0, 0.0], np.eye(2) / 2)
    with pytest.raises(ValueError, match="h_s"):
        CompositeSpec(d_s=2, d_e=2, h_s=np.array([[0, 1], [0, 0]]),
                      h_e=np.eye(2), h_se=np.eye(4), initial=init)
    with pytest.raises(ValueError, match="exceeds"):
        CompositeSpec(d_s=9, d_e=9, h_s=np.eye(9), h_e=np.eye(9),
                      h_se=np.eye(81),
                      initial=InitialState.product(random_amplitudes(9, rng), np.eye(9) / 9))


# ------------------------------------------------------------ hamiltonian


def test_total_hamiltonian_uncoupled_blocks():
    rng = np.random.default_rng(2)
    h_s = random_hermitian(2, rng)
    init = InitialState.product(random_amplitudes(2, rng), np.eye(2) / 2)
    spec = CompositeSpec(d_s=2, d_e=2, h_s=h_s, h_e=np.zeros((2, 2)),
                         h_se=np.zeros((4, 4)), initial=init)
    h = build_total_hamiltonian(spec)
    assert np.abs(h - tensor_product(h_s, np.eye(2))).max() < 1e-14
    # each system level twofold degenerate
    w = np.sort(np.linalg.eigvalsh(h))
    ws = np.sort(np.linalg.eigvalsh(h_s))
    assert np.abs(w - np.repeat(ws, 2)).max() < 1e-12


def test_total_hamiltonian_zero_coupling_and_hermiticity():
    rng = np.random.default_rng(3)
    spec = random_product_spec(2, 2, rng, coupling_strength=0.0)
    h = build_total_hamiltonian(spec)
    expect = (tensor_product(spec.h_s, np.eye(2)) + tensor_product(np.eye(2), spec.h_e))
    assert np.abs(h - expect).max() < 1e-14
    spec2 = random_product_spec(2, 2, rng)
    h2 = build_total_hamiltonian(spec2)
    assert np.abs(h2 - h2.conj().T).max() < 1e-14


# ----------------------------------------------------------------- evolve


def test_evolve_initial_matrix_elements():
    rng = np.random.default_rng(4)
    c = random_amplitudes(3, rng)
    spec = CompositeSpec(d_s=3, d_e=2, h_s=random_hermitian(3, rng),
                         h_e=random_hermitian(2, rng), h_se=random_hermitian(6, rng),
                         initial=InitialState.product(c, random_env_weights(2, rng)))
    res = evolve(spec, 0.0)
    assert np.abs(res.rho_s - np.outer(c, c.conj())).max() < 1e-14


def test_evolve_uncoupled_is_local_unitary():
    rng = np.random.default_rng(5)
    c = random_amplitudes(2, rng)
    h_s = random_hermitian(2, rng)
    spec = CompositeSpec(d_s=2, d_e=3, h_s=h_s, h_e=random_hermitian(3, rng),
                         h_se=np.zeros((6, 6)),
                         initial=InitialState.product(c, random_env_weights(3, rng)))
    t = 1.4
    res = evolve(spec, t)
    w, v = np.linalg.eigh(h_s)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    rho0 = np.outer(c, c.conj())
    assert np.abs(res.rho_s - u @ rho0 @ u.conj().T).max() < 1e-12
    assert abs(von_neumann_entropy(res.rho_s) - von_neumann_entropy(rho0)) < 1e-10


def test_evolve_single_env_state_formula():
    # with one environment state the reduced motion is generated by
    # h_s + V * h_se directly
    rng = np.random.default_rng(6)
    c = random_amplitudes(2, rng)
    h_s = random_hermitian(2, rng)
    h_se = random_hermitian(2, rng)
    spec = CompositeSpec(d_s=2, d_e=1, h_s=h_s, h_e=np.array([[0.7]]),
                         h_se=h_se, coupling_strength=1.3,
                         initial=InitialState.product(c, np.eye(1)))
    t = 0.9
    res = evolve(spec, t)
    h_eff = h_s + 1.3 * h_se
    w, v = np.linalg.eigh(h_eff)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    rho0 = np.outer(c, c.conj())
    assert np.abs(res.rho_s - u @ rho0 @ u.conj().T).max() < 1e-12


def test_evolve_states_stay_valid():
    rng = np.random.default_rng(7)
    for _ in range(5):
        spec = random_product_spec(rng.integers(2, 4), rng.integers(2, 4), rng,
                                   coupling_strength=float(rng.uniform(0.1, 5.0)))
        for t in (0.3, 1.1, 2.7):
            res = evolve(spec, t)
            validate_density_matrix(res.rho_s)
            validate_density_matrix(res.rho_e)


def test_evolve_schmidt_symmetry():
    # globally pure initial data: both reduced entropies agree at all times
    rng = np.random.default_rng(8)
    d_mat = np.zeros((3, 3), dtype=complex)
    d_mat[1, 1] = 1.0
    spec = CompositeSpec(d_s=2, d_e=3, h_s=random_hermitian(2, rng),
                         h_e=random_hermitian(3, rng), h_se=random_hermitian(6, rng),
                         initial=InitialState.product(random_amplitudes(2, rng), d_mat))
    for t in (0.5, 1.5):
        res = evolve(spec, t)
        assert abs(von_neumann_entropy(res.rho_s)
                   - von_neumann_entropy(res.rho_e)) < 1e-9


def test_spec_and_its_cached_propagator_are_freed_without_the_cycle_collector():
    spec = random_product_spec(3, 2, np.random.default_rng(4))
    assert spec.propagator.unitary(0.5).shape == (6, 6)
    ref = weakref.ref(spec)
    gc.disable()
    try:
        del spec
        assert ref() is None
    finally:
        gc.enable()


def test_evolve_rejects_reverse_time():
    rng = np.random.default_rng(9)
    spec = random_product_spec(2, 2, rng)
    with pytest.raises(ValueError, match="t >= 0"):
        evolve(spec, -1.0)


# ------------------------------------------------------------- super map


def test_supermatrix_identity_at_t0():
    rng = np.random.default_rng(10)
    spec = random_product_spec(3, 2, rng)
    sm = supermatrix(spec, 0.0)
    ident = np.einsum("ik,jl->ijkl", np.eye(3), np.eye(3))
    assert np.abs(sm - ident).max() < 1e-13


def test_supermatrix_contraction_matches_evolve():
    rng = np.random.default_rng(11)
    for _ in range(4):
        spec = random_product_spec(int(rng.integers(2, 5)), int(rng.integers(2, 5)), rng)
        d2 = spec.d_s ** 2
        sm = supermatrix(spec, 1.1).reshape(d2, d2)
        res = evolve(spec, 1.1)
        rho_t = (spec.initial.rho_s0().reshape(-1) @ sm).reshape(spec.d_s, spec.d_s)
        assert np.abs(rho_t - res.rho_s).max() < 1e-10


def test_supermatrix_against_loop_oracle():
    rng = np.random.default_rng(12)
    spec = random_product_spec(2, 3, rng)
    t = 0.8
    sm = supermatrix(spec, t)
    from markovlab.dynamics import Propagator
    u = Propagator(spec).unitary(t)
    oracle = supermatrix_loop_oracle(u, spec.initial.d_mat, 2, 3)
    assert np.abs(sm - oracle).max() < 1e-13


def test_supermatrix_trace_preservation():
    rng = np.random.default_rng(13)
    spec = random_product_spec(3, 3, rng)
    sm = supermatrix(spec, 1.7).reshape(9, 9)
    for _ in range(3):
        rho0 = np.outer(*(lambda v: (v, v.conj()))(random_amplitudes(3, rng)))
        assert abs(np.trace((rho0.reshape(-1) @ sm).reshape(3, 3)) - 1.0) < 1e-10


def test_supermatrix_uncoupled_phase_factors():
    rng = np.random.default_rng(14)
    h_s = np.diag([0.5, 1.7]).astype(complex)
    spec = CompositeSpec(d_s=2, d_e=2, h_s=h_s, h_e=random_hermitian(2, rng),
                         h_se=np.zeros((4, 4)),
                         initial=InitialState.product(random_amplitudes(2, rng),
                                                      random_env_weights(2, rng)))
    t = 1.3
    sm = supermatrix(spec, t)
    es = np.array([0.5, 1.7])
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    expect = 0.0j
                    if i1 == j1 and i2 == j2:
                        expect = np.exp(-1j * (es[j1] - es[j2]) * t)
                    assert abs(sm[i1, i2, j1, j2] - expect) < 1e-12


def test_supermatrix_rejects_entangled():
    rng = np.random.default_rng(15)
    a = random_amplitudes(4, rng).reshape(2, 2)
    spec = CompositeSpec(d_s=2, d_e=2, h_s=random_hermitian(2, rng),
                         h_e=random_hermitian(2, rng), h_se=random_hermitian(4, rng),
                         initial=InitialState.entangled(a))
    with pytest.raises(ValueError, match="product"):
        supermatrix(spec, 1.0)


# ------------------------------------------------------------ divisibility


def test_divisibility_single_env_state_any_strength():
    rng = np.random.default_rng(16)
    for strength in (0.1, 1.0, 10.0):
        spec = random_product_spec(3, 1, rng, coupling_strength=strength)
        assert divisibility_defect(spec, 0.0, 0.7, 1.3) < 1e-10


def test_divisibility_uncoupled():
    rng = np.random.default_rng(17)
    spec = CompositeSpec(d_s=2, d_e=3, h_s=random_hermitian(2, rng),
                         h_e=random_hermitian(3, rng), h_se=np.zeros((6, 6)),
                         initial=InitialState.product(random_amplitudes(2, rng),
                                                      random_env_weights(3, rng)))
    assert divisibility_defect(spec, 0.0, 0.7, 1.3) < 1e-12


def test_divisibility_generic_violation_frozen_oracle():
    # diagonal environment weights (0.5, 0.3, 0.2), generic coupling;
    # defect value frozen from the brute-force loop oracle run
    rng = np.random.default_rng(2024)
    h_s = random_hermitian(2, rng)
    h_e = random_hermitian(3, rng)
    h_se = random_hermitian(6, rng)
    c = random_amplitudes(2, rng)
    d = np.diag([0.5, 0.3, 0.2]).astype(complex)
    spec = CompositeSpec(d_s=2, d_e=3, h_s=h_s, h_e=h_e, h_se=h_se,
                         initial=InitialState.product(c, d))
    defect = divisibility_defect(spec, 0.0, 0.7, 1.3)
    assert defect > 1e-3
    assert abs(defect - 0.16661501834945933) < 1e-9
    # loop-oracle cross-check of the same composition
    from markovlab.dynamics import Propagator
    prop = Propagator(spec)
    c_whole = supermatrix_loop_oracle(prop.unitary(1.3), d, 2, 3)
    c_first = supermatrix_loop_oracle(prop.unitary(0.7), d, 2, 3)
    c_second = supermatrix_loop_oracle(prop.unitary(0.6), d, 2, 3)
    rhs = np.einsum("ijab,abkl->ijkl", c_first, c_second)
    assert abs(np.abs(c_whole - rhs).max() - defect) < 1e-12


def test_divisibility_degenerate_splits_are_exact():
    rng = np.random.default_rng(18)
    spec = random_product_spec(2, 3, rng)
    assert divisibility_defect(spec, 0.0, 0.0, 1.3) < 1e-12
    assert divisibility_defect(spec, 0.0, 1.3, 1.3) < 1e-12


def test_divisibility_rejects_bad_triple():
    rng = np.random.default_rng(19)
    spec = random_product_spec(2, 2, rng)
    with pytest.raises(ValueError, match="t0 <= ts <= t"):
        divisibility_defect(spec, 0.0, 2.0, 1.0)


# -------------------------------------------------- entangled initial data


def _entangled_spec(rng, a, h_e=None, h_se=None):
    d_s, d_e = a.shape
    return CompositeSpec(
        d_s=d_s, d_e=d_e, h_s=random_hermitian(d_s, rng),
        h_e=random_hermitian(d_e, rng) if h_e is None else h_e,
        h_se=random_hermitian(d_s * d_e, rng) if h_se is None else h_se,
        initial=InitialState.entangled(a))


def test_entangled_single_env_state_divisible():
    rng = np.random.default_rng(20)
    a = random_amplitudes(2, rng).reshape(2, 1)
    spec = _entangled_spec(rng, a)
    assert entangled_divisibility(spec, 0.0, 0.6, 1.4) < 1e-10


def test_entangled_single_alpha_with_confined_coupling():
    # amplitudes supported on one environment level, coupling block
    # diagonal in that level: the environment never leaves the state
    rng = np.random.default_rng(21)
    c = random_amplitudes(2, rng)
    a = np.zeros((2, 2), dtype=complex)
    a[:, 0] = c
    h_e = np.diag([0.2, 0.9]).astype(complex)
    h_se = (np.kron(random_hermitian(2, rng), np.diag([1.0, 0.0]))
            + np.kron(random_hermitian(2, rng), np.diag([0.0, 1.0])))
    spec = _entangled_spec(rng, a, h_e=h_e, h_se=h_se)
    assert entangled_divisibility(spec, 0.0, 0.6, 1.4) < 1e-10


def test_entangled_product_amplitudes_match_product_defect():
    rng = np.random.default_rng(22)
    c = random_amplitudes(2, rng)
    a = np.zeros((2, 2), dtype=complex)
    a[:, 1] = c
    h_s = random_hermitian(2, rng)
    h_e = random_hermitian(2, rng)
    h_se = random_hermitian(4, rng)
    spec_ent = CompositeSpec(d_s=2, d_e=2, h_s=h_s, h_e=h_e, h_se=h_se,
                             initial=InitialState.entangled(a))
    d_mat = np.zeros((2, 2), dtype=complex)
    d_mat[1, 1] = 1.0
    spec_prod = CompositeSpec(d_s=2, d_e=2, h_s=h_s, h_e=h_e, h_se=h_se,
                              initial=InitialState.product(c, d_mat))
    ent = entangled_divisibility(spec_ent, 0.0, 0.6, 1.4)
    # the same state-level defect from the product spec's public map
    mid = np.tensordot(evolve(spec_prod, 0.6).rho_s, supermatrix(spec_prod, 1.4, 0.6))
    prod = float(np.abs(mid - evolve(spec_prod, 1.4).rho_s).max())
    assert abs(ent - prod) < 1e-12


def test_entangled_bell_state_breaks_divisibility():
    rng = np.random.default_rng(31)
    a = np.array([[1.0, 0.0], [0.0, 1.0]]) / np.sqrt(2)
    spec = _entangled_spec(rng, a)
    defect = entangled_divisibility(spec, 0.0, 0.7, 1.3)
    assert defect > 1e-3
    assert abs(defect - 0.465761088330463) < 1e-9


def test_entangled_requires_entangled_state():
    rng = np.random.default_rng(23)
    spec = random_product_spec(2, 2, rng)
    with pytest.raises(ValueError, match="entangled"):
        entangled_divisibility(spec, 0.0, 0.5, 1.0)


# ------------------------------------------- factorization and degeneracy


def _free_coupling_commutator(spec):
    """max |[H_S x 1 + 1 x H_E, V H_SE]|: zero when U(t) factorises."""
    h0 = tensor_product(spec.h_s, np.eye(spec.d_e)) + tensor_product(np.eye(spec.d_s), spec.h_e)
    h_int = spec.coupling_strength * spec.h_se
    return float(np.abs(h0 @ h_int - h_int @ h0).max())


def test_factorization_commuting_coupling():
    rng = np.random.default_rng(24)
    h_s = random_hermitian(2, rng)
    w, v = np.linalg.eigh(h_s)
    h_se = v @ np.diag(rng.standard_normal(2)).astype(complex) @ v.conj().T
    spec = CompositeSpec(d_s=2, d_e=1, h_s=h_s, h_e=np.array([[0.4]]), h_se=h_se,
                         initial=InitialState.product(random_amplitudes(2, rng), np.eye(1)))
    assert _free_coupling_commutator(spec) < 1e-12
    assert divisibility_defect(spec, 0.0, 0.7, 1.3) < 1e-10


def test_factorization_fully_degenerate_levels():
    rng = np.random.default_rng(25)
    spec = CompositeSpec(d_s=2, d_e=1, h_s=np.eye(2), h_e=np.array([[0.0]]),
                         h_se=random_hermitian(2, rng),
                         initial=InitialState.product(random_amplitudes(2, rng), np.eye(1)))
    eps = np.linalg.eigvalsh(spec.h_s)
    assert abs(eps[1] - eps[0]) < 1e-9
    assert _free_coupling_commutator(spec) < 1e-12
    assert divisibility_defect(spec, 0.0, 0.7, 1.3) < 1e-10


def test_factorization_generic_not_applicable():
    rng = np.random.default_rng(26)
    spec = random_product_spec(2, 2, rng)
    assert _free_coupling_commutator(spec) > 1e-6
    assert divisibility_defect(spec, 0.0, 0.7, 1.3) > 0.0


# ------------------------------------------------------------ stationarity


def test_stationarity_single_env_state_exact():
    rng = np.random.default_rng(27)
    spec = random_product_spec(3, 1, rng, coupling_strength=5.0)
    diag = environment_stationarity(spec, TimeGrid(0.0, 3.0, 60))
    assert diag.stationarity_defect == 0.0
    assert diag.tau_c == np.inf


def test_stationarity_uncoupled_commuting_weights():
    rng = np.random.default_rng(28)
    h_e = np.diag([0.1, 0.8, 1.9]).astype(complex)
    spec = CompositeSpec(d_s=2, d_e=3, h_s=random_hermitian(2, rng), h_e=h_e,
                         h_se=np.zeros((6, 6)),
                         initial=InitialState.product(random_amplitudes(2, rng),
                                                      random_env_weights(3, rng)))
    diag = environment_stationarity(spec, TimeGrid(0.0, 3.0, 60))
    assert diag.stationarity_defect < 1e-12
    assert abs(diag.delta_e - 1.8) < 1e-12
    assert abs(diag.tau_c - 1 / 1.8) < 1e-12


def test_stationarity_strong_coupling_frozen_value():
    rng = np.random.default_rng(5)
    spec = random_product_spec(2, 3, rng, coupling_strength=3.0)
    diag = environment_stationarity(spec, TimeGrid(0.0, 5.0, 200))
    assert 0.05 < diag.stationarity_defect < 0.9
    assert abs(diag.stationarity_defect - 0.31541387669669996) < 1e-9
    assert abs(diag.tau_s - diag.delta_e / 9.0) < 1e-12


# --------------------------------------------------------------- witness


def test_witness_identical_states():
    rng = np.random.default_rng(29)
    spec = random_product_spec(2, 2, rng)
    c = random_amplitudes(2, rng)
    res = distinguishability_witness(c, c, spec, TimeGrid(0.0, 2.0, 40))
    assert np.abs(res.distance).max() == 0.0


def test_witness_single_env_state_constant_distance():
    rng = np.random.default_rng(30)
    spec = random_product_spec(2, 1, rng, coupling_strength=2.0)
    res = distinguishability_witness(random_amplitudes(2, rng),
                                     random_amplitudes(2, rng),
                                     spec, TimeGrid(0.0, 3.0, 100))
    assert np.abs(res.distance - res.distance[0]).max() < 1e-10
    assert res.max_rate < 1e-8


def test_witness_degenerate_pair_stays_indistinguishable():
    rng = np.random.default_rng(32)
    spec = random_product_spec(2, 1, rng)
    c = random_amplitudes(2, rng)
    res = distinguishability_witness(c, c, spec, TimeGrid(0.0, 3.0, 50))
    assert np.abs(res.distance).max() < 1e-14


def test_witness_generic_backflow_detectable():
    # small environments generically feed information back
    rng = np.random.default_rng(33)
    spec = random_product_spec(2, 2, rng, coupling_strength=2.0)
    res = distinguishability_witness(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                                     spec, TimeGrid(0.0, 6.0, 300))
    assert res.max_rate > 1e-3


# ---------------------------------------------------------------- entropy


def test_entropy_single_env_state_flat():
    rng = np.random.default_rng(34)
    spec = random_product_spec(3, 1, rng, coupling_strength=4.0)
    report = entropy_sie_check(spec, TimeGrid(0.0, 3.0, 120))
    assert report.delta == 1
    assert report.entropy_span < 1e-9


def test_entropy_uncoupled_flat():
    rng = np.random.default_rng(35)
    spec = CompositeSpec(d_s=2, d_e=2, h_s=random_hermitian(2, rng),
                         h_e=random_hermitian(2, rng), h_se=np.zeros((4, 4)),
                         initial=InitialState.product(random_amplitudes(2, rng),
                                                      random_env_weights(2, rng)))
    report = entropy_sie_check(spec, TimeGrid(0.0, 3.0, 120))
    assert report.entropy_span < 1e-9


def test_entropy_rate_bounded():
    rng = np.random.default_rng(36)
    for _ in range(5):
        spec = random_product_spec(2, 2, rng)
        report = entropy_sie_check(spec, TimeGrid(0.0, 3.0, 300))
        assert report.max_rate <= 2.0 * report.h_norm * np.log(2.0)
        assert np.all(report.entropy >= -1e-12)
        assert np.all(report.entropy <= np.log(2.0) + 1e-9)


def test_entropy_report_fields():
    rng = np.random.default_rng(37)
    spec = random_product_spec(2, 3, rng)
    report = entropy_sie_check(spec, TimeGrid(0.0, 2.0, 100))
    assert report.delta == 2
    assert report.h_norm > 0
    assert np.isfinite(report.bound_ratio)


# ------------------------------------------- trajectory engine properties


DIMS = [(a, b) for a in range(1, 17) for b in range(1, 17) if a * b <= 16]


def _density(rng, n, rank, rotate=True):
    """Random density matrix of the given rank; exactly diagonal unless rotated."""
    p = np.zeros(n)
    p[:rank] = rng.random(rank) + 0.05
    rho = np.diag(p / p.sum()).astype(complex)
    if rotate:
        v = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        rho = v @ rho @ v.conj().T
        rho = 0.5 * (rho + rho.conj().T)
    return rho


def _drawn_spec(data, kind):
    d_s, d_e = data.draw(st.sampled_from(DIMS))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rotate = data.draw(st.booleans())
    env = _density(rng, d_e, data.draw(st.integers(1, d_e)), rotate)
    if kind == "product":
        initial = InitialState.product(random_amplitudes(d_s, rng), env)
    elif kind == "mixed-product":
        system = _density(rng, d_s, data.draw(st.integers(1, d_s)), rotate)
        initial = InitialState.mixed_product(system, env)
    else:
        initial = InitialState.entangled(random_amplitudes(d_s * d_e, rng).reshape(d_s, d_e))
    return CompositeSpec(d_s=d_s, d_e=d_e, h_s=random_hermitian(d_s, rng),
                         h_e=random_hermitian(d_e, rng),
                         h_se=random_hermitian(d_s * d_e, rng), initial=initial,
                         coupling_strength=data.draw(st.floats(0.1, 3.0))), rng


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["product", "mixed-product", "entangled"]),
       steps=st.integers(2, 40), t1=st.floats(0.5, 6.0), data=st.data())
def test_engine_matches_per_time_oracle(kind, steps, t1, data):
    spec, rng = _drawn_spec(data, kind)
    d_s, d_e = spec.d_s, spec.d_e
    grid = TimeGrid(0.0, t1, steps)
    dts = grid.times() - grid.t0
    prop = spec.propagator
    factor = spec.initial.factor()
    assert np.abs(factor @ factor.conj().T - spec.initial.rho_full()).max() < 1e-14
    # a block smaller than the grid, so the engine walks several blocks
    chunk = data.draw(st.integers(1, steps))
    width = max(d_s * d_e * factor.shape[1], d_s ** 2, d_e ** 2)
    state_a = random_amplitudes(d_s, rng)
    state_b = _density(rng, d_s, data.draw(st.integers(1, d_s)))
    with mock.patch.object(dynamics, "_TIME_BLOCK", width * chunk):
        blocks = [psi for psi, in prop.states(dts, factor)]
        assert len(blocks) == -(-dts.size // chunk) > 1
        psi = np.concatenate(blocks)
        entropy = entropy_sie_check(spec, grid).entropy
        stationarity = environment_stationarity(spec, grid).distance
        witness = (None if kind == "entangled" else
                   distinguishability_witness(state_a, state_b, spec, grid).distance)

    rho = [prop.rho_full(dt) for dt in dts]
    rho_s = np.array([partial_trace_env(r, d_s, d_e) for r in rho])
    rho_e = np.array([partial_trace_sys(r, d_s, d_e) for r in rho])
    assert np.abs(trace_env_factored(psi, d_s) - rho_s).max() < 1e-12
    assert np.abs(trace_sys_factored(psi, d_s, d_e) - rho_e).max() < 1e-12
    assert np.abs(entropy - [von_neumann_entropy(r) for r in rho_s]).max() < 1e-12
    if d_e > 1:
        assert np.abs(stationarity - [trace_distance(r, rho_e[0]) for r in rho_e]).max() < 1e-12
    if witness is not None:
        def evolved(state):
            rho0 = tensor_product(state, spec.initial.d_mat)
            return [partial_trace_env(u @ rho0 @ u.conj().T, d_s, d_e)
                    for u in map(prop.unitary, dts)]
        oracle = [trace_distance(a, b) for a, b in
                  zip(evolved(np.outer(state_a, state_a.conj())), evolved(state_b))]
        assert np.abs(witness - oracle).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.0, 5.0), data=st.data())
def test_supermatrix_matches_loop_oracle_and_keeps_trace_and_hermiticity(t, data):
    spec, _ = _drawn_spec(data, "product")
    d_s = spec.d_s
    entries = supermatrix(spec, t)
    oracle = supermatrix_loop_oracle(spec.propagator.unitary(t), spec.initial.d_mat,
                                     d_s, spec.d_e)
    assert np.abs(entries - oracle).max() < 1e-13
    # sum_j C[i1, i2, j, j] = delta_{i1 i2}: every image has unit trace
    assert np.abs(np.einsum("abjj->ab", entries) - np.eye(d_s)).max() < 1e-13
    # C[i2, i1, j2, j1] = C[i1, i2, j1, j2]^*: Hermitian weights map to Hermitian states
    assert np.abs(entries - entries.transpose(1, 0, 3, 2).conj()).max() < 1e-13
