"""Exact composite evolution and divisibility diagnostics.

A finite system S (dimension d_s) couples to a finite environment E
(dimension d_e) through H = H_S x 1 + 1 x H_E + V * H_SE.  Everything is
evolved exactly with dense unitaries, the reduced dynamics is packaged
as the four-index super matrix

    C[(i1, i2), (j1, j2)](t, t0)
        = sum_{a1, a2, g} d[a1, a2] <j1 g|U|i1 a1> <j2 g|U|i2 a2>^*

acting on system matrices as rho_S(t)[j1, j2] = sum rho_S(0)[i1, i2] *
C[(i1, i2), (j1, j2)], and the memoryless character of the evolution is
probed through the factorisation of C across an intermediate time.  The
middle-segment map is always rebuilt from the initial environment
weights, which is exactly the relation under test: it holds identically
when the environment amounts to a single never-excited state, and fails
otherwise.

Trajectories share one engine.  Each spec eigendecomposes H once (the
``CompositeSpec.propagator``), the initial state enters as a rank factor
F with F F^dag = rho(0), and the states on a time grid form the stack
psi(t) = V (exp(-i E t) * V^dag F) of shape (T, d, r).  Reduced states
of S and E are a reshape and one batched matmul of that stack, and the
time axis is walked in blocks of at most ``_TIME_BLOCK`` complex entries
so memory stays flat on long grids.  The super matrix is one batched
matmul, and maps compose as (d_s^2, d_s^2) matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from markovlab.linalg import (
    MAX_COMPOSITE_DIM,
    DomainError,
    partial_trace_env,
    partial_trace_sys,
    require_hermitian,
    tensor_product,
    trace_distance,
    trace_env_factored,
    trace_sys_factored,
    validate_density_matrix,
    von_neumann_entropy,
)
from markovlab.spectral import TimeGrid

_AMP_TOL = 1e-12

#: Complex entries of the evolved-state stacks one trajectory block holds.
_TIME_BLOCK = 1 << 13


def _amplitudes(values, arg: str) -> np.ndarray:
    values = np.asarray(values, dtype=complex)
    norm2 = float(np.sum(np.abs(values) ** 2))
    if abs(norm2 - 1.0) > _AMP_TOL:
        raise DomainError(f"amplitudes not normalized: sum |{arg}|^2 = {norm2:.15g}", arg)
    return values


def _weights(m, arg: str, name: str) -> np.ndarray:
    try:
        return validate_density_matrix(m, name=name)
    except ValueError as exc:
        raise DomainError(str(exc), arg) from exc


def _psd_factor(m: np.ndarray) -> np.ndarray:
    """G with G G^dag = m for positive semidefinite m; columns of weight > 0 only."""
    w, v = np.linalg.eigh(m)
    keep = w > 0.0
    return v[:, keep] * np.sqrt(w[keep])


@dataclass(frozen=True)
class InitialState:
    """Initial data of the composite system at t0.

    ``product``        pure system amplitudes c with environment weights d_mat.
    ``mixed-product``  system weight matrix s_weights with environment d_mat.
    ``entangled``      joint amplitudes a[i, alpha] of a pure composite state.
    """

    kind: str
    c: np.ndarray | None = None
    s_weights: np.ndarray | None = None
    d_mat: np.ndarray | None = None
    a: np.ndarray | None = None

    @classmethod
    def product(cls, c, d_mat) -> "InitialState":
        return cls(kind="product", c=_amplitudes(c, "c").ravel(),
                   d_mat=_weights(d_mat, "d_mat", "environment weights"))

    @classmethod
    def mixed_product(cls, s_weights, d_mat) -> "InitialState":
        return cls(kind="mixed-product",
                   s_weights=_weights(s_weights, "s_weights", "system weights"),
                   d_mat=_weights(d_mat, "d_mat", "environment weights"))

    @classmethod
    def entangled(cls, a) -> "InitialState":
        if np.ndim(a) != 2:
            raise DomainError("entangled amplitudes must form a d_s x d_e matrix", "a")
        return cls(kind="entangled", a=_amplitudes(a, "a"))

    @property
    def d_s(self) -> int:
        if self.kind == "product":
            return self.c.size
        if self.kind == "mixed-product":
            return self.s_weights.shape[0]
        return self.a.shape[0]

    @property
    def d_e(self) -> int:
        return self.d_mat.shape[0] if self.kind != "entangled" else self.a.shape[1]

    def rho_s0(self) -> np.ndarray:
        if self.kind == "product":
            return np.outer(self.c, self.c.conj())
        if self.kind == "mixed-product":
            return self.s_weights.copy()
        return self.a @ self.a.conj().T

    def rho_full(self) -> np.ndarray:
        if self.kind == "entangled":
            psi = self.a.reshape(-1)
            return np.outer(psi, psi.conj())
        return tensor_product(self.rho_s0(), self.d_mat)

    def factor(self) -> np.ndarray:
        """Rank factor F of the composite state: F F^dag = rho_full().

        ``product`` gives c x sqrt(d_mat), ``mixed-product``
        sqrt(s_weights) x sqrt(d_mat) and ``entangled`` the column vec(a);
        the square roots keep only the eigenvectors of positive weight.
        """
        if self.kind == "entangled":
            return self.a.reshape(-1, 1)
        sys = self.c[:, None] if self.kind == "product" else _psd_factor(self.s_weights)
        return np.kron(sys, _psd_factor(self.d_mat))

    def env_weights(self) -> np.ndarray:
        """Initial environment statistics (reduced state of E at t0)."""
        if self.kind == "entangled":
            return np.einsum("ia,ib->ab", self.a, self.a.conj())
        return self.d_mat

    def env_purity_defect(self) -> float:
        d = self.env_weights()
        return float(np.abs(d @ d - d).max())


@dataclass(frozen=True)
class CompositeSpec:
    """Dimensions, Hamiltonian pieces and initial state of S + E."""

    d_s: int
    d_e: int
    h_s: np.ndarray
    h_e: np.ndarray
    h_se: np.ndarray
    initial: InitialState
    coupling_strength: float = 1.0

    def __post_init__(self):
        self.check_dimensions(self.d_s, self.d_e)
        initial = self.initial
        if initial.d_s != self.d_s:
            arg = {"product": "c", "mixed-product": "s_weights"}.get(initial.kind, "a")
            raise DomainError(f"initial state has d_s = {initial.d_s}, not {self.d_s}", arg)
        if initial.d_e != self.d_e:
            raise DomainError(f"initial state has d_e = {initial.d_e}, not {self.d_e}",
                              "a" if initial.kind == "entangled" else "d_mat")
        for arg, dim in (("h_s", self.d_s), ("h_e", self.d_e), ("h_se", self.d_s * self.d_e)):
            mat = getattr(self, arg)
            if np.shape(mat) != (dim, dim):
                raise DomainError(f"{arg} has shape {np.shape(mat)}, not {(dim, dim)}", arg)
            object.__setattr__(self, arg, require_hermitian(mat, arg))

    @staticmethod
    def check_dimensions(d_s: int, d_e: int):
        """DomainError naming d_s or d_e unless both are >= 1 and d_s * d_e <= 64."""
        for arg, dim in (("d_s", d_s), ("d_e", d_e)):
            if dim < 1:
                raise DomainError(f"need {arg} >= 1, got {dim}", arg)
        if d_s * d_e > MAX_COMPOSITE_DIM:
            raise DomainError(f"d_s * d_e = {d_s * d_e} exceeds {MAX_COMPOSITE_DIM}", "d_s")

    @cached_property
    def propagator(self) -> "Propagator":
        """The one eigendecomposition of H that every evolution of this spec uses."""
        return Propagator(self)


def build_total_hamiltonian(spec: CompositeSpec) -> np.ndarray:
    eye_s = np.eye(spec.d_s)
    eye_e = np.eye(spec.d_e)
    return (tensor_product(spec.h_s, eye_e)
            + tensor_product(eye_s, spec.h_e)
            + spec.coupling_strength * spec.h_se)


class Propagator:
    """Shared eigendecomposition of H; builds U(dt) cheaply per time."""

    def __init__(self, spec: CompositeSpec):
        # no reference back to the spec, which caches this object: a cycle
        # would keep both alive until the cyclic garbage collector runs
        self.initial, self.d_s, self.d_e = spec.initial, spec.d_s, spec.d_e
        self.hamiltonian = build_total_hamiltonian(spec)
        self.eigvals, self.eigvecs = np.linalg.eigh(self.hamiltonian)

    def unitary(self, dt: float) -> np.ndarray:
        if dt == 0:
            return np.eye(self.hamiltonian.shape[0], dtype=complex)
        v = self.eigvecs
        return (v * np.exp(-1j * self.eigvals * dt)) @ v.conj().T

    def rho_full(self, dt: float) -> np.ndarray:
        u = self.unitary(dt)
        return u @ self.initial.rho_full() @ u.conj().T

    def states(self, dts: np.ndarray, *factors: np.ndarray):
        """Yield the evolved factors U(dt) F for consecutive blocks of dts.

        Each item is a list with one (T_block, d, r) stack per factor,
        psi[k] = V (exp(-i E dts[k]) * V^dag F), so psi psi^dag is the
        evolved rho.  A block holds at most ``_TIME_BLOCK`` complex
        entries over all factors, and as many in a stack of reduced
        states of S or E (but at least one time).
        """
        v = self.eigvecs
        coeffs = [v.conj().T @ f for f in factors]
        width = max(v.shape[0] * sum(c.shape[1] for c in coeffs),
                    self.d_s ** 2, self.d_e ** 2)
        step = max(1, _TIME_BLOCK // width)
        for start in range(0, dts.size, step):
            phases = np.exp(-1j * self.eigvals * dts[start:start + step, None])[:, :, None]
            yield [v @ (phases * c) for c in coeffs]


class EvolveResult(NamedTuple):
    rho_s: np.ndarray
    rho_e: np.ndarray
    rho_full: np.ndarray


def evolve(spec: CompositeSpec, t: float) -> EvolveResult:
    """Exact state of S, E and S+E at time t from the initial data at time 0."""
    if t < 0:
        raise ValueError(f"need t >= 0, got t = {t}")
    rho = spec.propagator.rho_full(t)
    rho_s = partial_trace_env(rho, spec.d_s, spec.d_e)
    rho_e = partial_trace_sys(rho, spec.d_s, spec.d_e)
    validate_density_matrix(rho, name="rho_full")
    validate_density_matrix(rho_s, name="rho_s")
    validate_density_matrix(rho_e, name="rho_e")
    return EvolveResult(rho_s, rho_e, rho)


def _supermatrix_entries(u: np.ndarray, d_weights: np.ndarray,
                         d_s: int, d_e: int) -> np.ndarray:
    """C[(i1, i2), (j1, j2)] as a (d_s^2, d_s^2) matrix.

    With y[j1, g, i1, a2] = sum_a1 U[j1 g, i1 a1] d[a1, a2], the entry
    C[i1, i2, j1, j2] = sum_{g, a2} y[j1, g, i1, a2] U[j2 g, i2 a2]^*
    is one batched matmul over (i1, i2) that writes C in place, without
    a transposed copy of the d_s^4 result.
    """
    y = (u.reshape(-1, d_e) @ d_weights).reshape(d_s, d_e, d_s, d_e)
    left = y.transpose(2, 0, 1, 3).reshape(d_s, 1, d_s, d_e * d_e)
    right = u.conj().reshape(d_s, d_e, d_s, d_e).transpose(2, 1, 3, 0)
    return (left @ right.reshape(1, d_s, d_e * d_e, d_s)).reshape(d_s * d_s, -1)


def supermatrix(spec: CompositeSpec, t: float, t0: float = 0.0) -> np.ndarray:
    """Reduced map over [t0, t] for product-type states, a (d_s, d_s, d_s, d_s) array.

    C[i1, i2, j1, j2] maps initial system weights to rho_S(t)[j1, j2] and is
    delta_{i1 j1} delta_{i2 j2} at t = t0; reshaped to (d_s^2, d_s^2) it acts
    on row-vectorised weights from the right.
    """
    if spec.initial.kind == "entangled":
        raise ValueError("the super matrix needs a product-type initial state")
    entries = _supermatrix_entries(spec.propagator.unitary(t - t0), spec.initial.d_mat,
                                   spec.d_s, spec.d_e)
    return entries.reshape((spec.d_s,) * 4)


def _check_triple(t0: float, ts: float, t: float):
    if not (t0 <= ts <= t):
        raise DomainError(f"need t0 <= ts <= t, got ({t0}, {ts}, {t})", "ts")


def divisibility_defect(spec: CompositeSpec, t0: float, ts: float, t: float) -> float:
    """Max-entry violation of the super-matrix factorisation across ts.

    Both segment maps are built from the t0 environment weights.  The
    defect vanishes identically (to roundoff) when the environment holds
    a single state, for any coupling strength, and is generically
    positive otherwise.
    """
    _check_triple(t0, ts, t)
    # compose into the first map one row block at a time, then subtract the
    # whole-interval map in place: at most two d_s^4 maps are live at once
    d2 = spec.d_s ** 2
    defect = supermatrix(spec, ts, t0).reshape(d2, d2)
    second = supermatrix(spec, t, ts).reshape(d2, d2)
    for r in range(0, defect.shape[0], spec.d_s):
        defect[r:r + spec.d_s] = defect[r:r + spec.d_s] @ second
    del second
    defect -= supermatrix(spec, t, t0).reshape(d2, d2)
    return float(np.abs(defect).max())


def entangled_divisibility(spec: CompositeSpec, t0: float, ts: float, t: float) -> float:
    """Divisibility defect for a correlated (entangled) initial state.

    Compares the exact rho_S(t) with the middle-segment map applied to
    the exact rho_S(ts); that map reuses the initial environment
    statistics sum_i a[i, a1] a[i, a2]^*.  The defect is zero exactly
    when the dynamics never moves the environment out of a single state
    (a one-state environment, or amplitudes supported on a block the
    coupling does not leave), and generically positive otherwise.
    """
    if spec.initial.kind != "entangled":
        raise ValueError("entangled_divisibility needs an entangled initial state")
    _check_triple(t0, ts, t)
    prop = spec.propagator
    rho_ts, rho_t = np.concatenate([
        trace_env_factored(psi, spec.d_s)
        for psi, in prop.states(np.array([ts - t0, t - t0]), spec.initial.factor())])
    mid = _supermatrix_entries(prop.unitary(t - ts), spec.initial.env_weights(),
                               spec.d_s, spec.d_e)
    lhs = rho_ts.reshape(-1) @ mid
    return float(np.abs(lhs.reshape(spec.d_s, spec.d_s) - rho_t).max())


@dataclass(frozen=True)
class MarkovDiagnostics:
    """Time-scale separation data for the conventional Markov criteria.

    delta_e is the spread of the environment spectrum, tau_c ~ 1/delta_e
    the correlation time, tau_s ~ 1/(V^2 tau_c) the system time,
    distance the trace distance of rho_E(t) from its initial value at
    each grid time, and stationarity_defect its largest value.
    """

    delta_e: float
    tau_c: float
    tau_s: float
    stationarity_defect: float
    distance: np.ndarray


def environment_stationarity(spec: CompositeSpec, grid: TimeGrid) -> MarkovDiagnostics:
    w_e = np.linalg.eigvalsh(spec.h_e)
    delta_e = float(w_e.max() - w_e.min())
    tau_c = np.inf if delta_e == 0 else 1.0 / delta_e
    v2 = spec.coupling_strength * spec.coupling_strength
    if v2 == 0 or np.isinf(tau_c):
        tau_s = np.inf if v2 == 0 else 0.0
    else:
        tau_s = 1.0 / (v2 * tau_c)
    times = grid.times()
    distance = np.zeros(times.size)
    if spec.d_e > 1:
        # a one-state environment is identically stationary; only larger
        # environments can actually move
        factor = spec.initial.factor()
        rho_e0 = trace_sys_factored(factor[None], spec.d_s, spec.d_e)[0]
        distance = np.concatenate([
            trace_distance(trace_sys_factored(psi, spec.d_s, spec.d_e), rho_e0)
            for psi, in spec.propagator.states(times - grid.t0, factor)])
    return MarkovDiagnostics(delta_e=delta_e, tau_c=tau_c, tau_s=tau_s,
                             stationarity_defect=float(distance.max()), distance=distance)


def _finite_difference_rate(values: np.ndarray, h: float) -> np.ndarray:
    rate = np.empty_like(values)
    rate[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    rate[0] = (values[1] - values[0]) / h
    rate[-1] = (values[-1] - values[-2]) / h
    return rate


@dataclass(frozen=True)
class WitnessResult:
    times: np.ndarray
    distance: np.ndarray
    rate: np.ndarray

    @property
    def max_rate(self) -> float:
        """Largest signed slope; any positive value witnesses information backflow."""
        return float(self.rate.max())


def distinguishability_witness(state_a, state_b, spec: CompositeSpec,
                               grid: TimeGrid) -> WitnessResult:
    """Trace distance of two evolved system states and its time derivative.

    Both states share the Hamiltonians and the initial environment
    weights of ``spec``; each may be an amplitude vector or a density
    matrix.  A strictly memoryless evolution never increases the
    distance, so a positive derivative anywhere flags backflow.
    """
    if spec.initial.kind == "entangled":
        raise ValueError("the witness needs a product-type environment state")
    factors = []
    for state in (state_a, state_b):
        initial = (InitialState.product(state, spec.initial.d_mat) if np.ndim(state) == 1
                   else InitialState.mixed_product(state, spec.initial.d_mat))
        if initial.d_s != spec.d_s:
            raise DomainError(f"state dimension {initial.d_s} does not match d_s = {spec.d_s}",
                              "c" if initial.kind == "product" else "s_weights")
        factors.append(initial.factor())
    times = grid.times()
    dist = np.concatenate([
        trace_distance(trace_env_factored(psi_a, spec.d_s),
                       trace_env_factored(psi_b, spec.d_s))
        for psi_a, psi_b in spec.propagator.states(times - grid.t0, *factors)])
    return WitnessResult(times=times, distance=dist,
                         rate=_finite_difference_rate(dist, grid.h))


@dataclass(frozen=True)
class EntropyReport:
    """Entropy trajectory of the reduced system state and its rate bound data.

    max_rate is the largest finite-difference |d entropy / dt| over the
    grid, h_norm the operator norm of the total Hamiltonian, delta the
    smaller of the two dimensions, and bound_ratio the ratio of max_rate
    to h_norm * log(delta) (infinite flag when delta = 1, where the
    entropy must simply stay flat).
    """

    entropy: np.ndarray
    max_rate: float
    bound_ratio: float
    delta: int
    h_norm: float

    @property
    def entropy_span(self) -> float:
        return float(np.abs(self.entropy - self.entropy[0]).max())


def entropy_sie_check(spec: CompositeSpec, grid: TimeGrid) -> EntropyReport:
    prop = spec.propagator
    entropy = np.concatenate([
        von_neumann_entropy(trace_env_factored(psi, spec.d_s))
        for psi, in prop.states(grid.times() - grid.t0, spec.initial.factor())])
    rate = _finite_difference_rate(entropy, grid.h)
    max_rate = float(np.abs(rate).max())
    delta = min(spec.d_s, spec.d_e)
    h_norm = float(np.abs(prop.eigvals).max())
    if delta == 1 or h_norm == 0.0:
        bound_ratio = 0.0 if max_rate == 0.0 else np.inf
    else:
        bound_ratio = float(max_rate / (h_norm * np.log(delta)))
    return EntropyReport(entropy=entropy, max_rate=max_rate,
                         bound_ratio=bound_ratio, delta=delta, h_norm=h_norm)
