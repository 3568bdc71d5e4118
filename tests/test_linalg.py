import numpy as np
import pytest

from markovlab.linalg import (
    PositivityError,
    partial_trace_env,
    partial_trace_sys,
    tensor_product,
    trace_distance,
    validate_density_matrix,
    von_neumann_entropy,
)


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_hermitian(rng, n):
    a = random_complex(rng, n)
    return 0.5 * (a + a.conj().T)


def random_density(rng, n):
    a = random_complex(rng, n)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


# ---------------------------------------------------------------- tensor


def test_tensor_identity():
    assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_slow_fast_convention():
    out = tensor_product(np.diag([1.0, 2.0]), np.eye(2))
    assert np.array_equal(out, np.diag([1.0, 1.0, 2.0, 2.0]))


def test_tensor_index_formula():
    rng = np.random.default_rng(0)
    a = random_complex(rng, 2)
    b = random_complex(rng, 2)
    out = tensor_product(a, b)
    for i in range(2):
        for j in range(2):
            for al in range(2):
                for be in range(2):
                    assert abs(out[i * 2 + al, j * 2 + be] - a[i, j] * b[al, be]) < 1e-14


def test_tensor_matches_kron_bit_for_bit():
    rng = np.random.default_rng(2)
    for (ra, ca), (rb, cb) in [((2, 3), (4, 1)), ((1, 1), (3, 3)), ((4, 4), (2, 5))]:
        a, b = random_complex(rng, ra, ca), random_complex(rng, rb, cb)
        # signed zeros in either part, and an identity factor as the callers pass
        a.real[0, 0], b.imag[-1, -1] = -0.0, -0.0
        a[-1, -1] = complex(0.0, -0.0)
        for x, y in [(a, b), (b, a), (np.eye(ra), b), (a, np.eye(rb))]:
            out, ref = tensor_product(x, y), np.kron(x.astype(complex), y.astype(complex))
            assert out.shape == ref.shape and out.flags.c_contiguous
            assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
            assert np.array_equal(np.signbit(out.real), np.signbit(ref.real))
            assert np.array_equal(np.signbit(out.imag), np.signbit(ref.imag))


def test_tensor_associative_and_mixed_product():
    rng = np.random.default_rng(1)
    a, b, c, d = (random_complex(rng, 2) for _ in range(4))
    left = tensor_product(tensor_product(a, b), c)
    right = tensor_product(a, tensor_product(b, c))
    assert np.abs(left - right).max() < 1e-14
    lhs = tensor_product(a, b) @ tensor_product(c, d)
    rhs = tensor_product(a @ c, b @ d)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_tensor_dimension_guard():
    with pytest.raises(ValueError, match="exceeds"):
        tensor_product(np.eye(16), np.eye(8))


# ---------------------------------------------------------- partial trace


def test_partial_trace_product_state():
    rng = np.random.default_rng(2)
    rho_s = random_density(rng, 3)
    rho_e = random_density(rng, 4)
    joint = tensor_product(rho_s, rho_e)
    assert np.abs(partial_trace_env(joint, 3, 4) - rho_s).max() < 1e-13
    assert np.abs(partial_trace_sys(joint, 3, 4) - rho_e).max() < 1e-13


def test_partial_trace_identity():
    out = partial_trace_env(np.eye(4) / 4, 2, 2)
    assert np.abs(out - np.eye(2) / 2).max() < 1e-15


def test_partial_trace_bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    # direct sum over the environment index
    expect = np.zeros((2, 2), dtype=complex)
    for al in range(2):
        for i in range(2):
            for j in range(2):
                expect[i, j] += rho[i * 2 + al, j * 2 + al]
    assert np.abs(expect - np.eye(2) / 2).max() < 1e-15
    assert np.abs(partial_trace_env(rho, 2, 2) - expect).max() < 1e-15


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(3)
    m = random_complex(rng, 6)
    assert abs(np.trace(partial_trace_env(m, 2, 3)) - np.trace(m)) < 1e-13


def test_partial_trace_shape_error():
    with pytest.raises(ValueError, match="expected"):
        partial_trace_env(np.eye(5), 2, 2)


# -------------------------------------------------------------- entropy


def test_entropy_pure_state():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0


def test_entropy_maximally_mixed():
    assert abs(von_neumann_entropy(np.eye(2) / 2) - np.log(2)) < 1e-14


def test_entropy_scalar_oracle():
    got = von_neumann_entropy(np.diag([0.75, 0.25]))
    expect = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
    assert abs(got - expect) < 1e-14


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(8)
    rho = random_density(rng, 4)
    w, v = np.linalg.eigh(random_hermitian(rng, 4))
    u = (v * np.exp(-1.3j * w)) @ v.conj().T
    assert abs(von_neumann_entropy(u @ rho @ u.conj().T)
               - von_neumann_entropy(rho)) < 1e-10


def test_entropy_clamps_tiny_negative_eigenvalues():
    assert von_neumann_entropy(np.diag([1.0, -5e-11])) == 0.0


def test_entropy_positivity_error():
    with pytest.raises(PositivityError):
        von_neumann_entropy(np.diag([1.1, -0.1]))


# --------------------------------------------------------- trace distance


def test_trace_distance_self():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 3)
    assert trace_distance(rho, rho) == 0.0


def test_trace_distance_orthogonal_pure():
    assert abs(trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) - 1.0) < 1e-15


def test_trace_distance_diagonal_oracle():
    got = trace_distance(np.diag([0.6, 0.4]), np.diag([0.5, 0.5]))
    assert abs(got - 0.1) < 1e-15


def test_trace_distance_triangle_inequality():
    rng = np.random.default_rng(10)
    for _ in range(20):
        a, b, c = (random_density(rng, 3) for _ in range(3))
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


def test_trace_distance_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        trace_distance(np.eye(2), np.eye(3))


# ------------------------------------------------------------ validation


def test_validate_density_matrix_accepts():
    rng = np.random.default_rng(11)
    validate_density_matrix(random_density(rng, 4))


def test_validate_density_matrix_rejects():
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.eye(2))
    with pytest.raises(PositivityError):
        validate_density_matrix(np.diag([1.5, -0.5]))
