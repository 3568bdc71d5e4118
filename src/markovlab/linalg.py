"""Dense complex linear algebra for small composite quantum systems.

All operators are plain numpy arrays of complex numbers.  The composite
basis convention is fixed once, package wide: the system index is slow
and the environment index is fast, so the product state |i, alpha> sits
at flat index ``i * d_env + alpha``.
"""

from __future__ import annotations

import numpy as np

#: Largest composite (system x environment) dimension supported.
MAX_COMPOSITE_DIM = 64

#: Hermiticity tolerance, max |M - M^dag| entrywise.
HERM_TOL = 1e-12
#: Unit-trace tolerance for density matrices.
TRACE_TOL = 1e-12
#: Eigenvalues of a density matrix may dip this far below zero (roundoff).
EIG_FLOOR = -1e-10


class PositivityError(ValueError):
    """An operator required to be positive semidefinite has a genuinely negative eigenvalue."""


class DomainError(ValueError):
    """An input outside its validity domain; ``arg`` names the argument at fault."""

    def __init__(self, message: str, arg: str):
        super().__init__(message)
        self.arg = arg


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-d complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def hermiticity_defect(m) -> float:
    """Max entrywise deviation of M from its conjugate transpose."""
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"hermiticity is undefined for shape {a.shape}")
    return float(np.abs(a - a.conj().T).max())


def require_hermitian(m, name: str = "matrix") -> np.ndarray:
    a = as_complex_matrix(m)
    defect = hermiticity_defect(a)
    if defect > HERM_TOL:
        raise ValueError(f"{name} is not Hermitian: max |M - M^dag| = {defect:.3e} > {HERM_TOL:g}")
    return a


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the slow-system / fast-environment convention.

    ``out[i*rb + k, j*cb + l] = a[i, j] * b[k, l]``, which is exactly
    ``np.kron``.  Raises if the composite dimension exceeds ``MAX_COMPOSITE_DIM``.
    """
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if max(rows, cols) > MAX_COMPOSITE_DIM:
        raise ValueError(
            f"composite dimension {rows}x{cols} exceeds the limit {MAX_COMPOSITE_DIM}")
    return np.kron(a, b)


def _reshape_composite(m, d_sys: int, d_env: int) -> np.ndarray:
    a = as_complex_matrix(m)
    dim = d_sys * d_env
    if a.shape != (dim, dim):
        raise ValueError(
            f"expected a {dim}x{dim} matrix for d_sys={d_sys}, d_env={d_env}, got {a.shape}"
        )
    return a.reshape(d_sys, d_env, d_sys, d_env)


def partial_trace_env(m, d_sys: int, d_env: int) -> np.ndarray:
    """Trace out the environment: out[i, j] = sum_a m[i*d_env + a, j*d_env + a]."""
    return np.einsum("iaja->ij", _reshape_composite(m, d_sys, d_env))


def partial_trace_sys(m, d_sys: int, d_env: int) -> np.ndarray:
    """Trace out the system: out[a, b] = sum_i m[i*d_env + a, i*d_env + b]."""
    return np.einsum("iaib->ab", _reshape_composite(m, d_sys, d_env))


def trace_env_factored(x, d_sys: int, y=None) -> np.ndarray:
    """Tr_E(x[k] y[k]^dag) for each k of (T, d_sys * d_env, r) stacks.

    With y omitted this is the reduced system state of rho = x x^dag,
    computed from the rank factor without forming rho: a reshape to
    (T, d_sys, d_env * r) and one batched matmul.
    """
    a = x.reshape(x.shape[0], d_sys, -1)
    b = a if y is None else y.reshape(y.shape[0], d_sys, -1)
    return a @ b.conj().swapaxes(1, 2)


def trace_sys_factored(x, d_sys: int, d_env: int) -> np.ndarray:
    """Tr_S(x[k] x[k]^dag) for each k of a (T, d_sys * d_env, r) stack."""
    a = x.reshape(x.shape[0], d_sys, d_env, -1).swapaxes(1, 2).reshape(x.shape[0], d_env, -1)
    return a @ a.conj().swapaxes(1, 2)


def _as_square_stack(m) -> np.ndarray:
    """Coerce to a finite complex array of square matrices, shape (..., n, n)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got array of shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def von_neumann_entropy(rho):
    """Entropy -sum_k p_k log p_k in nats, with 0 log 0 = 0.

    Eigenvalues in [EIG_FLOOR, 0) are clamped to zero; anything below
    the floor raises :class:`PositivityError`.  A (..., n, n) stack gives
    an array of entropies, a single matrix a float.
    """
    w = np.linalg.eigvalsh(_as_square_stack(rho))
    if w.min() < EIG_FLOOR:
        raise PositivityError(
            f"eigenvalue {w.min():.3e} below the positivity floor {EIG_FLOOR:.1e}"
        )
    # 1 log 1 = 0 stands in for the clamped eigenvalues
    w = np.where(w > 0.0, w, 1.0)
    s = -(w * np.log(w)).sum(axis=-1)
    return float(s) if s.ndim == 0 else s


def trace_distance(a, b):
    """Half the trace norm of (a - b) for Hermitian a, b.

    Either argument may be a (..., n, n) stack; the two broadcast against
    each other and a stack gives an array of distances.
    """
    a = _as_square_stack(a)
    b = _as_square_stack(b)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1)
    return float(d) if d.ndim == 0 else d


def validate_density_matrix(rho, *, name: str = "density matrix") -> np.ndarray:
    """Check Hermiticity, unit trace and positivity at HERM_TOL, TRACE_TOL, EIG_FLOOR."""
    a = as_complex_matrix(rho)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got {a.shape}")
    defect = hermiticity_defect(a)
    if defect > HERM_TOL:
        raise ValueError(f"{name} not Hermitian: defect {defect:.3e} > {HERM_TOL:.1e}")
    tr = complex(np.trace(a))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} trace {tr:.15g} deviates from 1 by more than {TRACE_TOL:.1e}")
    wmin = float(np.linalg.eigvalsh(a).min())
    if wmin < EIG_FLOOR:
        raise PositivityError(f"{name} eigenvalue {wmin:.3e} below floor {EIG_FLOOR:.1e}")
    return a
