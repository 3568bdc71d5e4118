import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovlab.dynamics import (
    CompositeSpec,
    InitialState,
    supermatrix,
)
from markovlab.master import (
    PreconditionError,
    classify_sufficient_conditions,
    commuting_block_evolution,
    effective_commutator_rhs,
    evolve_rho_s,
    exact_rho_dot,
    maximally_mixed_invariance,
)
from markovlab.sampling import (
    random_amplitudes,
    random_env_weights,
    random_hermitian,
    random_product_spec,
)
from markovlab.spectral import TimeGrid


def commuting_spec(rng, d_s, d_e, mixed_env=True, coupling=1.0):
    """Coupling built as a direct sum of system blocks over env levels."""
    h_e = np.diag(np.sort(rng.standard_normal(d_e))).astype(complex)
    h_se = np.zeros((d_s * d_e, d_s * d_e), dtype=complex)
    for a in range(d_e):
        proj = np.zeros((d_e, d_e))
        proj[a, a] = 1.0
        h_se += np.kron(random_hermitian(d_s, rng), proj)
    d_mat = random_env_weights(d_e, rng) if mixed_env else np.eye(d_e) / d_e
    return CompositeSpec(d_s=d_s, d_e=d_e, h_s=random_hermitian(d_s, rng),
                         h_e=h_e, h_se=h_se, coupling_strength=coupling,
                         initial=InitialState.product(random_amplitudes(d_s, rng), d_mat))


def maximally_mixed_spec(rng, d_s, d_e):
    return CompositeSpec(d_s=d_s, d_e=d_e, h_s=random_hermitian(d_s, rng),
                         h_e=random_hermitian(d_e, rng),
                         h_se=random_hermitian(d_s * d_e, rng),
                         initial=InitialState.mixed_product(np.eye(d_s) / d_s,
                                                            np.eye(d_e) / d_e))


# ----------------------------------------------------------- exact rho dot


def test_rho_dot_initial_uncoupled():
    rng = np.random.default_rng(0)
    c = random_amplitudes(2, rng)
    h_s = random_hermitian(2, rng)
    spec = CompositeSpec(d_s=2, d_e=2, h_s=h_s, h_e=random_hermitian(2, rng),
                         h_se=np.zeros((4, 4)),
                         initial=InitialState.product(c, random_env_weights(2, rng)))
    got = exact_rho_dot(spec, 0.0)
    rho0 = np.outer(c, c.conj())
    expect = -1j * (h_s @ rho0 - rho0 @ h_s)
    assert np.abs(got - expect).max() < 1e-13


def test_rho_dot_matches_finite_difference():
    rng = np.random.default_rng(1)
    spec = random_product_spec(2, 3, rng)
    t, eps = 0.8, 1e-6
    got = exact_rho_dot(spec, t)
    fd = (evolve_rho_s(spec, t + eps) - evolve_rho_s(spec, t - eps)) / (2 * eps)
    assert np.abs(got - fd).max() < 1e-8


def test_rho_dot_traceless_and_hermitian():
    rng = np.random.default_rng(2)
    for _ in range(5):
        spec = random_product_spec(3, 2, rng, coupling_strength=float(rng.uniform(0.2, 3)))
        dot = exact_rho_dot(spec, 1.1)
        assert abs(np.trace(dot)) < 1e-12
        assert np.abs(dot - dot.conj().T).max() < 1e-10


# --------------------------------------------------------- classification


def test_classify_single_env_state():
    rng = np.random.default_rng(3)
    spec = random_product_spec(3, 1, rng)
    conds = classify_sufficient_conditions(spec)
    assert conds.unique_env_state


def test_classify_commuting_coupling():
    rng = np.random.default_rng(4)
    spec = commuting_spec(rng, 2, 3)
    conds = classify_sufficient_conditions(spec)
    assert conds.commuting_he_hse
    assert not conds.unique_env_state


def test_classify_maximally_mixed():
    rng = np.random.default_rng(5)
    spec = maximally_mixed_spec(rng, 2, 3)
    conds = classify_sufficient_conditions(spec)
    assert conds.maximally_mixed


def test_classify_none_hold():
    rng = np.random.default_rng(6)
    spec = random_product_spec(2, 2, rng)
    conds = classify_sufficient_conditions(spec)
    assert not conds.unique_env_state
    assert not conds.commuting_he_hse
    assert not conds.maximally_mixed


# --------------------------------------------------------- commutator form


def test_commutator_form_single_env_state():
    rng = np.random.default_rng(7)
    spec = random_product_spec(3, 1, rng, coupling_strength=2.0)
    form = effective_commutator_rhs(spec, 0.9)
    assert form.residual < 1e-10


def test_commutator_form_uncoupled():
    rng = np.random.default_rng(8)
    c = random_amplitudes(2, rng)
    h_s = random_hermitian(2, rng)
    spec = CompositeSpec(d_s=2, d_e=1, h_s=h_s, h_e=np.array([[0.3]]),
                         h_se=np.zeros((2, 2)),
                         initial=InitialState.product(c, np.eye(1)))
    form = effective_commutator_rhs(spec, 1.2)
    assert form.residual < 1e-12
    rho_s = evolve_rho_s(spec, 1.2)
    assert np.abs(form.rhs - (-1j) * (h_s @ rho_s - rho_s @ h_s)).max() < 1e-12


def test_commutator_form_eigenvalue_constancy():
    rng = np.random.default_rng(10)
    spec = random_product_spec(3, 1, rng, coupling_strength=3.0)
    w0 = np.sort(np.linalg.eigvalsh(evolve_rho_s(spec, 0.0)))
    for t in (0.5, 1.5, 2.5):
        w = np.sort(np.linalg.eigvalsh(evolve_rho_s(spec, t)))
        assert np.abs(w - w0).max() < 1e-9


def test_commutator_form_precondition_error():
    rng = np.random.default_rng(11)
    spec = random_product_spec(2, 2, rng)
    with pytest.raises(PreconditionError, match=r"measured residual \S+$") as err:
        effective_commutator_rhs(spec, 0.9)
    assert float(str(err.value).split()[-1]) > 1e-3


# ------------------------------------------------------------ block mixture


def test_block_mixture_single_env_state():
    rng = np.random.default_rng(12)
    spec = random_product_spec(2, 1, rng, coupling_strength=1.7)
    result = commuting_block_evolution(spec, 1.1)
    assert result.residual < 1e-10


def test_block_mixture_two_blocks():
    rng = np.random.default_rng(13)
    h_e = np.diag([0.4, -0.9]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    h_se = np.kron(sx, np.diag([1.0, -1.0]))
    spec = CompositeSpec(d_s=2, d_e=2, h_s=random_hermitian(2, rng), h_e=h_e,
                         h_se=h_se,
                         initial=InitialState.product(random_amplitudes(2, rng),
                                                      random_env_weights(2, rng)))
    result = commuting_block_evolution(spec, 1.7)
    assert result.residual < 1e-10


def test_block_mixture_random_commuting_specs():
    rng = np.random.default_rng(14)
    for _ in range(5):
        spec = commuting_spec(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        result = commuting_block_evolution(spec, float(rng.uniform(0.5, 2.5)))
        assert result.residual < 1e-10


def test_block_mixture_equal_blocks_keep_entropy():
    rng = np.random.default_rng(15)
    block = random_hermitian(2, rng)
    h_se = np.kron(block, np.eye(2))
    h_e = np.diag([0.3, 1.4]).astype(complex)
    c = random_amplitudes(2, rng)
    spec = CompositeSpec(d_s=2, d_e=2, h_s=random_hermitian(2, rng), h_e=h_e,
                         h_se=h_se,
                         initial=InitialState.product(c, random_env_weights(2, rng)))
    from markovlab.linalg import von_neumann_entropy
    s0 = von_neumann_entropy(np.outer(c, c.conj()))
    result = commuting_block_evolution(spec, 2.1)
    assert result.residual < 1e-10
    assert abs(von_neumann_entropy(evolve_rho_s(spec, 2.1)) - s0) < 1e-9


def test_block_mixture_precondition_error():
    rng = np.random.default_rng(16)
    spec = random_product_spec(2, 2, rng)
    with pytest.raises(PreconditionError, match=r"off-block norm \S+$") as err:
        commuting_block_evolution(spec, 1.0)
    assert float(str(err.value).split()[-1]) > 1e-6


def test_block_mixture_repeated_calls_equal_a_fresh_spec():
    times = [0.0, 0.4, 1.3, 0.4, 2.9]
    spec = commuting_spec(np.random.default_rng(19), 3, 4)
    repeated = [commuting_block_evolution(spec, t) for t in times]
    for t, got in zip(times, repeated):
        fresh = commuting_block_evolution(commuting_spec(np.random.default_rng(19), 3, 4), t)
        assert np.array_equal(got.rho_s, fresh.rho_s)
        assert got.residual == fresh.residual


def test_block_mixture_precondition_error_on_every_call():
    spec = random_product_spec(2, 3, np.random.default_rng(20))
    for t in (1.0, 1.0, 2.0):
        with pytest.raises(PreconditionError, match="not in the commuting class"):
            commuting_block_evolution(spec, t)


def _hermitian_part(m):
    return 0.5 * (m + m.conj().T)


_DIMS = [(a, b) for a in range(1, 17) for b in range(1, 17) if a * b <= 16]


def _eigenspace_pieces(rng, d_s, levels, rotate, within=False):
    """H_E = W diag(levels) W^dag, a coupling and weights built on its eigenspaces.

    H_E is degenerate when two integer levels coincide.  Coupling
    sum_k B_k x P_k and weights sum_k p_k P_k / rank P_k go through the
    spectral projectors P_k, so they are block diagonal (and diagonal) in
    whichever eigenbasis of H_E the oracle picks.  With ``within`` each P_k
    in the coupling becomes a random Hermitian M_k on its eigenspace: the
    coupling still commutes with H_E, but it is block diagonal in a given
    eigenbasis only where the eigenspaces are one-dimensional.
    """
    d_e = len(levels)
    w = np.eye(d_e, dtype=complex)
    if rotate:
        w = np.linalg.qr(rng.standard_normal((d_e, d_e))
                         + 1j * rng.standard_normal((d_e, d_e)))[0]
    h_se = np.zeros((d_s * d_e, d_s * d_e), dtype=complex)
    d_mat = np.zeros((d_e, d_e), dtype=complex)
    for level in np.unique(levels):
        cols = w[:, levels == level]
        proj = _hermitian_part(cols @ cols.conj().T)
        env = cols @ random_hermitian(cols.shape[1], rng) @ cols.conj().T if within else proj
        h_se += np.kron(random_hermitian(d_s, rng), _hermitian_part(env))
        d_mat += (rng.random() + 0.05) * proj / cols.shape[1]
    return (_hermitian_part((w * levels) @ w.conj().T), _hermitian_part(h_se),
            d_mat / np.trace(d_mat).real)


@settings(max_examples=60, deadline=None)
@given(dims=st.sampled_from(_DIMS), seed=st.integers(0, 2**32 - 1), rotate=st.booleans(),
       coupling=st.floats(0.1, 3.0), t=st.floats(0.0, 5.0), data=st.data())
def test_block_mixture_matches_reference_path(dims, seed, rotate, coupling, t, data):
    d_s, d_e = dims
    rng = np.random.default_rng(seed)
    levels = np.array(data.draw(st.lists(st.integers(0, 3), min_size=d_e, max_size=d_e)))
    h_e, h_se, d_mat = _eigenspace_pieces(rng, d_s, levels, rotate)
    spec = CompositeSpec(d_s=d_s, d_e=d_e, h_s=random_hermitian(d_s, rng), h_e=h_e,
                         h_se=h_se, coupling_strength=coupling,
                         initial=InitialState.product(random_amplitudes(d_s, rng), d_mat))
    result = commuting_block_evolution(spec, t)
    assert np.abs(result.rho_s - evolve_rho_s(spec, t)).max() < 1e-12
    assert abs(np.trace(result.rho_s) - 1.0) < 1e-12


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["generic", "projectors", "within-eigenspace",
                             "non-diagonal-weights", "entangled"]),
       dims=st.sampled_from(_DIMS), seed=st.integers(0, 2**32 - 1), rotate=st.booleans(),
       data=st.data())
def test_commuting_class_is_the_block_mixture_precondition(kind, dims, seed, rotate, data):
    # the classifier reports the commuting class exactly when its oracle accepts
    # the spec; a coupling that merely commutes with H_E (a degenerate H_E with
    # eigenspace-mixing blocks), weights off the diagonal and entangled data are not in it
    d_s, d_e = dims
    rng = np.random.default_rng(seed)
    if kind == "generic":
        spec = random_product_spec(d_s, d_e, rng)
    else:
        top = 1 if kind == "within-eigenspace" else 3
        levels = np.array(data.draw(st.lists(st.integers(0, top), min_size=d_e, max_size=d_e)))
        h_e, h_se, d_mat = _eigenspace_pieces(rng, d_s, levels, rotate,
                                              within=kind == "within-eigenspace")
        if kind == "non-diagonal-weights":
            d_mat = random_env_weights(d_e, rng)
        initial = (InitialState.entangled(random_amplitudes(d_s * d_e, rng).reshape(d_s, d_e))
                   if kind == "entangled"
                   else InitialState.product(random_amplitudes(d_s, rng), d_mat))
        spec = CompositeSpec(d_s=d_s, d_e=d_e, h_s=random_hermitian(d_s, rng), h_e=h_e,
                             h_se=h_se, initial=initial)
    try:
        commuting_block_evolution(spec, 1.3)
    except PreconditionError:
        accepted = False
    else:
        accepted = True
    assert classify_sufficient_conditions(spec).commuting_he_hse == accepted


# --------------------------------------------------------- maximally mixed


def test_maximally_mixed_invariance_and_closure():
    rng = np.random.default_rng(17)
    spec = maximally_mixed_spec(rng, 2, 3)
    result = maximally_mixed_invariance(spec, TimeGrid(0.0, 2.0, 40))
    assert result.max_defect < 1e-12
    assert result.unitarity_defect < 1e-10


def test_maximally_mixed_closure_loop_oracle():
    rng = np.random.default_rng(18)
    spec = maximally_mixed_spec(rng, 2, 2)
    from markovlab.dynamics import Propagator
    u = Propagator(spec).unitary(1.3)
    w = np.zeros((2, 2), dtype=complex)
    for j1 in range(2):
        for j2 in range(2):
            for i in range(2):
                for a in range(2):
                    for g in range(2):
                        w[j1, j2] += (u[j1 * 2 + g, i * 2 + a]
                                      * np.conj(u[j2 * 2 + g, i * 2 + a]))
    assert np.abs(w - 2 * np.eye(2)).max() < 1e-10


def test_maximally_mixed_state_divisibility():
    # the state-level factorisation holds for the flat state even though
    # the full map does not factorise
    rng = np.random.default_rng(19)
    spec = maximally_mixed_spec(rng, 2, 3)
    mid = np.tensordot(evolve_rho_s(spec, 0.7), supermatrix(spec, 1.3, 0.7))
    assert np.abs(mid - evolve_rho_s(spec, 1.3)).max() < 1e-10


def test_maximally_mixed_precondition():
    rng = np.random.default_rng(20)
    spec = random_product_spec(2, 2, rng)
    with pytest.raises(PreconditionError, match="maximally mixed"):
        maximally_mixed_invariance(spec, TimeGrid(0.0, 1.0, 10))


def test_commuting_case_map_divisibility_measured_only():
    # a commuting coupling gives a time-local generator, but the full map
    # over a multi-state environment still need not factorise; the defect
    # is measured and reported, never asserted to vanish
    rng = np.random.default_rng(21)
    spec = commuting_spec(rng, 2, 3)
    from markovlab.dynamics import divisibility_defect
    defect = divisibility_defect(spec, 0.0, 0.7, 1.3)
    assert defect >= 0.0
    # the state-level relation can also stay broken for generic weights
    mid = np.tensordot(evolve_rho_s(spec, 0.7), supermatrix(spec, 1.3, 0.7))
    assert np.isfinite(mid - evolve_rho_s(spec, 1.3)).all()
