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
so memory stays flat on long grids.  The super matrices of a stack of
unitaries are one batched matmul, and maps compose as (d_s^2, d_s^2)
matrices.  The divisibility defects of many time triples are evaluated
as stacks too, in blocks that the same ``_TIME_BLOCK`` bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from markovlab.linalg import (
    MAX_COMPOSITE_DIM,
    DomainError,
    density_factor,
    # unused here, but perfbench/spans.py wraps every module's binding of it
    # and perfbench/selftest.py reads this one
    partial_trace_env,
    require_hermitian,
    tensor_product,
    trace_distance,
    trace_env_factored,
    trace_sys_factored,
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


def _weights(m, arg: str, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The checked weight matrix and its rank factor, from one eigh."""
    try:
        return density_factor(m, name=name)
    except ValueError as exc:
        raise DomainError(str(exc), arg) from exc


#: the constructor argument that gives the system part of each kind of initial state
_STATE_ARG = {"product": "c", "mixed-product": "s_weights", "entangled": "a"}


@dataclass(frozen=True)
class InitialState:
    """Initial data of the composite system at t0, built by one of three constructors.

    ``product``        pure system amplitudes c with environment weights d_mat.
    ``mixed-product``  system weight matrix s_weights with environment d_mat.
    ``entangled``      joint amplitudes a[i, alpha] of a pure composite state.

    ``rho_s0`` and ``env_weights`` are the reduced states of S and E at t0.
    ``d_mat`` is the environment factor of a product-type state and None
    for an entangled one.  ``factor`` is a rank factor F of the composite
    state, F F^dag = rho_full(), formed on first use from the stored
    system factor (the column c, sqrt(s_weights) or the column vec(a))
    and environment factor sqrt(d_mat).  Each weight matrix is checked
    and factored by the same eigh; the square roots keep only weights > 0.
    """

    kind: str
    rho_s0: np.ndarray
    env_weights: np.ndarray
    d_mat: np.ndarray | None
    sys_factor: np.ndarray = field(repr=False)
    env_factor: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def product(cls, c, d_mat) -> "InitialState":
        c = _amplitudes(c, "c").ravel()
        d_mat, env = _weights(d_mat, "d_mat", "environment weights")
        return cls("product", np.outer(c, c.conj()), d_mat, d_mat, c[:, None], env)

    @classmethod
    def mixed_product(cls, s_weights, d_mat) -> "InitialState":
        s_weights, sys = _weights(s_weights, "s_weights", "system weights")
        d_mat, env = _weights(d_mat, "d_mat", "environment weights")
        return cls("mixed-product", s_weights, d_mat, d_mat, sys, env)

    @classmethod
    def entangled(cls, a) -> "InitialState":
        if np.ndim(a) != 2:
            raise DomainError("entangled amplitudes must form a d_s x d_e matrix", "a")
        a = _amplitudes(a, "a")
        return cls("entangled", a @ a.conj().T, np.einsum("ia,ib->ab", a, a.conj()), None,
                   a.reshape(-1, 1))

    @property
    def d_s(self) -> int:
        return self.rho_s0.shape[0]

    @property
    def d_e(self) -> int:
        return self.env_weights.shape[0]

    def rho_full(self) -> np.ndarray:
        if self.d_mat is None:
            psi = self.sys_factor[:, 0]
            return np.outer(psi, psi.conj())
        return tensor_product(self.rho_s0, self.d_mat)

    @cached_property
    def factor(self) -> np.ndarray:
        """F with F F^dag = rho_full()."""
        if self.d_mat is None:
            return self.sys_factor
        return np.kron(self.sys_factor, self.env_factor)

    def env_purity_defect(self) -> float:
        d = self.env_weights
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
            raise DomainError(f"initial state has d_s = {initial.d_s}, not {self.d_s}",
                              _STATE_ARG[initial.kind])
        if initial.d_e != self.d_e:
            raise DomainError(f"initial state has d_e = {initial.d_e}, not {self.d_e}",
                              _STATE_ARG[initial.kind] if initial.d_mat is None else "d_mat")
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

    @cached_property
    def env_blocks(self) -> "EnvBlocks":
        """The coupling and the environment weights in the eigenbasis of H_E."""
        return EnvBlocks(self)


class EnvBlocks:
    """V H_SE and the environment weights in one eigenbasis of H_E.

    A coupling that commutes with 1 x H_E is a direct sum of system blocks
    B_a there: ``off_norm`` is the largest entry outside those blocks, and
    ``eigvals``, ``eigvecs`` are the batched eigendecomposition of the
    (d_e, d_s, d_s) stack H_S + B_a.  ``weights`` is the diagonal of the
    rotated environment weights and ``weight_defect`` their largest entry
    off it.  Like the propagator it holds no reference to the spec.
    """

    def __init__(self, spec: CompositeSpec):
        _, rot = np.linalg.eigh(spec.h_e)
        full_rot = tensor_product(np.eye(spec.d_s), rot)
        h_int = full_rot.conj().T @ (spec.coupling_strength * spec.h_se) @ full_rot
        blocks = h_int.reshape(spec.d_s, spec.d_e, spec.d_s, spec.d_e)
        idx = np.arange(spec.d_e)
        on_block = blocks[:, idx, :, idx]      # (d_e, d_s, d_s): B_a
        blocks[:, idx, :, idx] = 0.0
        self.off_norm = float(np.abs(blocks).max())
        d_rot = rot.conj().T @ spec.initial.env_weights @ rot
        self.weights = np.real(np.diag(d_rot))
        self.weight_defect = float(np.abs(d_rot - np.diag(self.weights)).max())
        self.eigvals, self.eigvecs = np.linalg.eigh(spec.h_s + on_block)


def _blocks(n: int, width: int):
    """Consecutive slices of range(n), each of at most ``_TIME_BLOCK // width``
    items (but at least one), for items of ``width`` complex entries."""
    step = max(1, _TIME_BLOCK // width)
    return (slice(start, start + step) for start in range(0, n, step))


class Propagator:
    """H = H_S x 1 + 1 x H_E + V H_SE and its shared eigendecomposition.

    Builds U(dt) cheaply per time.  ``rho_full`` is the dense reference
    state, independent of the rank-factor trajectories of ``states``.
    """

    def __init__(self, spec: CompositeSpec):
        # no reference back to the spec, which caches this object: a cycle
        # would keep both alive until the cyclic garbage collector runs
        self.initial, self.d_s, self.d_e = spec.initial, spec.d_s, spec.d_e
        self.hamiltonian = (tensor_product(spec.h_s, np.eye(spec.d_e))
                            + tensor_product(np.eye(spec.d_s), spec.h_e)
                            + spec.coupling_strength * spec.h_se)
        self.eigvals, self.eigvecs = np.linalg.eigh(self.hamiltonian)
        self._eigvecs_h = self.eigvecs.conj().T

    def unitaries(self, dts) -> np.ndarray:
        """U(dt) for each dt as a (T, d, d) stack, from one gemm; exactly 1 at dt = 0."""
        v = self.eigvecs
        dts = np.asarray(dts, dtype=float)
        phased = v * np.exp(-1j * self.eigvals * dts[:, None])[:, None, :]
        u = (phased.reshape(-1, v.shape[0]) @ self._eigvecs_h).reshape(phased.shape)
        if not dts.all():
            u[dts == 0] = np.eye(v.shape[0])
        return u

    def unitary(self, dt: float) -> np.ndarray:
        return self.unitaries([dt])[0]

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
        coeffs = [self._eigvecs_h @ f for f in factors]
        width = max(v.shape[0] * sum(c.shape[1] for c in coeffs),
                    self.d_s ** 2, self.d_e ** 2)
        for part in _blocks(dts.size, width):
            phases = np.exp(-1j * self.eigvals * dts[part, None])[:, :, None]
            yield [v @ (phases * c) for c in coeffs]


def _supermatrices(u: np.ndarray, d_weights: np.ndarray, d_s: int, d_e: int) -> np.ndarray:
    """C[(i1, i2), (j1, j2)] of each unitary of a (T, d, d) stack, shape (T, d_s^2, d_s^2).

    With y[j1, g, i1, a2] = sum_a1 U[j1 g, i1 a1] d[a1, a2], the entry
    C[i1, i2, j1, j2] = sum_{g, a2} y[j1, g, i1, a2] U[j2 g, i2 a2]^*
    is one batched matmul over (T, i1, i2) that writes C in place, without
    a transposed copy of the d_s^4 results.
    """
    n = len(u)
    y = (u.reshape(-1, d_e) @ d_weights).reshape(n, d_s, d_e, d_s, d_e)
    left = y.transpose(0, 3, 1, 2, 4).reshape(n, d_s, 1, d_s, d_e * d_e)
    right = u.conj().reshape(n, d_s, d_e, d_s, d_e).transpose(0, 3, 2, 4, 1)
    return (left @ right.reshape(n, 1, d_s, d_e * d_e, d_s)).reshape(n, d_s * d_s, -1)


def _require_product(spec: CompositeSpec):
    if spec.initial.d_mat is None:
        raise ValueError("the super matrix needs a product-type initial state")


def supermatrix(spec: CompositeSpec, t: float, t0: float = 0.0) -> np.ndarray:
    """Reduced map over [t0, t] for product-type states, a (d_s, d_s, d_s, d_s) array.

    C[i1, i2, j1, j2] maps initial system weights to rho_S(t)[j1, j2] and is
    delta_{i1 j1} delta_{i2 j2} at t = t0; reshaped to (d_s^2, d_s^2) it acts
    on row-vectorised weights from the right.
    """
    _require_product(spec)
    entries = _supermatrices(spec.propagator.unitaries([t - t0]), spec.initial.d_mat,
                             spec.d_s, spec.d_e)
    return entries.reshape((spec.d_s,) * 4)


def _triple_times(triples) -> np.ndarray:
    """The t0, ts and t columns of (t0, ts, t) triples, each as a float array."""
    for t0, ts, t in triples:
        if not (t0 <= ts <= t):
            raise DomainError(f"need t0 <= ts <= t, got ({t0}, {ts}, {t})", "ts")
    return np.array(triples, dtype=float).reshape(-1, 3).T


def _map_defects(spec: CompositeSpec, t0, ts, t) -> np.ndarray:
    """Defects of a block of triples: compose into the first maps one row block
    at a time, then subtract the whole-interval maps in place, so two maps
    per triple are live at once."""
    d_s = spec.d_s

    def maps(dts):
        return _supermatrices(spec.propagator.unitaries(dts), spec.initial.d_mat, d_s, spec.d_e)

    defect = maps(ts - t0)
    second = maps(t - ts)
    for r in range(0, d_s * d_s, d_s):
        defect[:, r:r + d_s] = defect[:, r:r + d_s] @ second
    del second
    defect -= maps(t - t0)
    return np.abs(defect).max(axis=(1, 2))


def _state_defects(spec: CompositeSpec, t0, ts, t) -> np.ndarray:
    """Defects of a block of triples of an entangled spec."""
    prop, initial, d_s, d_e = spec.propagator, spec.initial, spec.d_s, spec.d_e
    dts = np.stack([ts - t0, t - t0], axis=1).ravel()
    rho = np.concatenate([trace_env_factored(psi, d_s)
                          for psi, in prop.states(dts, initial.factor)])
    mid = _supermatrices(prop.unitaries(t - ts), initial.env_weights, d_s, d_e)
    lhs = rho[0::2].reshape(-1, 1, d_s * d_s) @ mid
    return np.abs(lhs.reshape(-1, d_s, d_s) - rho[1::2]).max(axis=(1, 2))


def divisibility_defects(spec: CompositeSpec, triples) -> np.ndarray:
    """Defect of each (t0, ts, t) triple, evaluated as memory-bounded stacks.

    For a product-type spec each is :func:`divisibility_defect`, for an
    entangled one :func:`entangled_divisibility`.  A block of triples holds
    at most ``_TIME_BLOCK`` complex entries of unitaries and maps (but at
    least one triple), so at most two d_s^4 maps are live per triple.
    """
    t0, ts, t = _triple_times(triples)
    defects = _state_defects if spec.initial.d_mat is None else _map_defects
    # a triple holds three unitaries and two maps, or two states, one unitary and a map
    width = (2 if spec.initial.d_mat is None else 3) * max(spec.d_s ** 4,
                                                            (spec.d_s * spec.d_e) ** 2)
    return np.concatenate([defects(spec, t0[part], ts[part], t[part])
                           for part in _blocks(t.size, width)] or [np.empty(0)])


def divisibility_defect(spec: CompositeSpec, t0: float, ts: float, t: float) -> float:
    """Max-entry violation of the super-matrix factorisation across ts.

    Both segment maps are built from the t0 environment weights.  The
    defect vanishes identically (to roundoff) when the environment holds
    a single state, for any coupling strength, and is generically
    positive otherwise.
    """
    _require_product(spec)
    return float(divisibility_defects(spec, [(t0, ts, t)])[0])


def entangled_divisibility(spec: CompositeSpec, t0: float, ts: float, t: float) -> float:
    """Divisibility defect for a correlated (entangled) initial state.

    Compares the exact rho_S(t) with the middle-segment map applied to
    the exact rho_S(ts); that map reuses the initial environment
    statistics sum_i a[i, a1] a[i, a2]^*.  The defect is zero exactly
    when the dynamics never moves the environment out of a single state
    (a one-state environment, or amplitudes supported on a block the
    coupling does not leave), and generically positive otherwise.
    """
    if spec.initial.d_mat is not None:
        raise ValueError("entangled_divisibility needs an entangled initial state")
    return float(divisibility_defects(spec, [(t0, ts, t)])[0])


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
        factor = spec.initial.factor
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
    if spec.initial.d_mat is None:
        raise ValueError("the witness needs a product-type environment state")
    factors = []
    for state in (state_a, state_b):
        if np.ndim(state) == 1:
            kind, sys_factor = "product", _amplitudes(state, "c")[:, None]
        else:
            kind = "mixed-product"
            _, sys_factor = _weights(state, _STATE_ARG[kind], "system weights")
        if len(sys_factor) != spec.d_s:
            raise DomainError(f"state dimension {len(sys_factor)} does not match "
                              f"d_s = {spec.d_s}", _STATE_ARG[kind])
        factors.append(np.kron(sys_factor, spec.initial.env_factor))
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
        for psi, in prop.states(grid.times() - grid.t0, spec.initial.factor)])
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
