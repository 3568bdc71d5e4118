"""Master-equation structure checks for the reduced dynamics.

The exact derivative of the reduced state is always available as
d rho_S / dt = Tr_E(-i [H, rho(t)]).  This module classifies the three
environment/coupling structures under which that derivative collapses
to a time-local generator acting in S space alone, and provides an
independent oracle for each:

  * one-state environment: the generator is the commutator with
    H_eff = H_S + V <eta|H_SE|eta>, so the reduced motion is unitary;
  * [1 x H_E, H_SE] = 0 with environment weights diagonal in the H_E
    eigenbasis: the reduced state is a fixed mixture of unitary orbits
    generated by the per-environment-level coupling blocks;
  * maximally mixed initial data: rho(0) is proportional to the
    identity, commutes with any H, and never moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from markovlab.dynamics import CompositeSpec
from markovlab.linalg import (
    mat_exp,
    partial_trace_env,
    tensor_product,
    trace_env_factored,
)
from markovlab.spectral import TimeGrid

_COMMUTE_TOL = 1e-12
_STATE_TOL = 1e-12


class PreconditionError(RuntimeError):
    """A structure-specific oracle was invoked outside its validity domain."""

    def __init__(self, message: str, *, residual: float | None = None,
                 commutator_norm: float | None = None):
        super().__init__(message)
        self.residual = residual
        self.commutator_norm = commutator_norm


def exact_rho_dot(spec: CompositeSpec, t: float, t0: float = 0.0) -> np.ndarray:
    """d rho_S / dt at time t, computed as Tr_E(-i [H, rho(t)])."""
    prop = spec.propagator
    rho = prop.rho_full(t - t0)
    comm = prop.hamiltonian @ rho - rho @ prop.hamiltonian
    return partial_trace_env(-1j * comm, spec.d_s, spec.d_e)


@dataclass(frozen=True)
class SufficientConditions:
    unique_env_state: bool
    commuting_he_hse: bool
    maximally_mixed: bool

    @property
    def none_hold(self) -> bool:
        return not (self.unique_env_state or self.commuting_he_hse
                    or self.maximally_mixed)


def env_coupling_commutator_norm(spec: CompositeSpec) -> float:
    """Max entry of [1 x H_E, V * H_SE]."""
    he_full = tensor_product(np.eye(spec.d_s), spec.h_e)
    h_int = spec.coupling_strength * spec.h_se
    return float(np.abs(he_full @ h_int - h_int @ he_full).max())


def classify_sufficient_conditions(spec: CompositeSpec) -> SufficientConditions:
    unique = spec.d_e == 1
    commuting = env_coupling_commutator_norm(spec) < _COMMUTE_TOL
    mixed = False
    if spec.initial.kind != "entangled":
        rho_s0 = spec.initial.rho_s0()
        mixed = bool(
            np.abs(rho_s0 - np.eye(spec.d_s) / spec.d_s).max() < _STATE_TOL
            and np.abs(spec.initial.d_mat - np.eye(spec.d_e) / spec.d_e).max() < _STATE_TOL
        )
    return SufficientConditions(unique_env_state=unique, commuting_he_hse=commuting,
                                maximally_mixed=mixed)


@dataclass(frozen=True)
class MasterOperators:
    """Generator pieces in the H_S eigenbasis.

    o_op = -i (d_s_part + d_se_part + n_se_part) where d_s_part holds the
    system eigenvalues, d_se_part the diagonal and n_se_part the
    off-diagonal part of the effective coupling.  o_op + o_op^dag = 0 by
    construction, and d rho / dt = o_op rho + rho o_op^dag.
    """

    o_op: np.ndarray
    d_s_part: np.ndarray
    d_se_part: np.ndarray
    n_se_part: np.ndarray


@dataclass(frozen=True)
class CommutatorForm:
    rhs: np.ndarray
    residual: float
    operators: MasterOperators
    h_eff: np.ndarray


def _env_averaged_coupling(spec: CompositeSpec) -> np.ndarray:
    """S-space block of the coupling averaged over the environment weights."""
    h_int = (spec.coupling_strength * spec.h_se).reshape(
        spec.d_s, spec.d_e, spec.d_s, spec.d_e)
    return np.einsum("iajb,ba->ij", h_int, spec.initial.d_mat)


def _effective_hamiltonian(spec: CompositeSpec) -> np.ndarray:
    """H_eff = H_S + V <H_SE>, averaged over product-type environment weights."""
    if spec.initial.kind == "entangled":
        raise PreconditionError("commutator form needs a product-type initial state")
    return spec.h_s + _env_averaged_coupling(spec)


def _commutator_residuals(spec: CompositeSpec, psi: np.ndarray,
                          h_eff: np.ndarray) -> np.ndarray:
    """max |exact - rhs| at each time of an evolved-factor stack psi.

    exact = Tr_E(-i [H, psi psi^dag]) and rhs = -i [H_eff, rho_S] differ
    by -i (D - D^dag) with D = Tr_E(((H - H_eff x 1) psi) psi^dag), so
    no density matrix is formed.
    """
    gen = spec.propagator.hamiltonian - tensor_product(h_eff, np.eye(spec.d_e))
    d = trace_env_factored(gen @ psi, spec.d_s, psi)
    return np.abs(d - d.conj().swapaxes(1, 2)).max(axis=(1, 2))


def commutator_residuals(spec: CompositeSpec, times,
                         t0: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Commutator-form residual and spectrum drift of rho_S at each time.

    The residual is that of :func:`effective_commutator_rhs`; the drift
    is the largest change of the sorted eigenvalues of rho_S(t) from
    those of rho_S(t0), which a unitary reduced motion keeps.  With
    rho_S = a a^dag for the reshaped factor a (d_s x m), those
    eigenvalues are the squared singular values of a, padded with zeros.
    """
    h_eff = _effective_hamiltonian(spec)
    w0 = np.linalg.eigvalsh(spec.initial.rho_s0())

    def drift(psi):
        s2 = np.linalg.svd(psi.reshape(len(psi), spec.d_s, -1), compute_uv=False) ** 2
        w = np.pad(s2[:, ::-1], ((0, 0), (spec.d_s - s2.shape[1], 0)))
        return np.abs(w - w0).max(axis=1)

    dts = np.asarray(times, dtype=float) - t0
    blocks = [(_commutator_residuals(spec, psi, h_eff), drift(psi))
              for psi, in spec.propagator.states(dts, spec.initial.factor())]
    return (np.concatenate([r for r, _ in blocks]),
            np.concatenate([d for _, d in blocks]))


def effective_commutator_rhs(spec: CompositeSpec, t: float,
                             t0: float = 0.0) -> CommutatorForm:
    """Time-local commutator form of the reduced derivative.

    Valid exactly for a one-state environment, where
    H_eff = H_S + V <eta|H_SE|eta> generates the full reduced motion.
    Outside that case the call fails with the measured residual attached
    for diagnostics.
    """
    h_eff = _effective_hamiltonian(spec)
    [(psi,)] = spec.propagator.states(np.array([t - t0]), spec.initial.factor())
    rho_s = trace_env_factored(psi, spec.d_s)[0]
    rhs = -1j * (h_eff @ rho_s - rho_s @ h_eff)
    residual = float(_commutator_residuals(spec, psi, h_eff)[0])
    if spec.d_e != 1:
        raise PreconditionError(
            f"the commutator form is only exact for a one-state environment "
            f"(d_e = {spec.d_e}); measured residual {residual:.3e}",
            residual=residual)

    eps, basis = np.linalg.eigh(spec.h_s)
    coupling = basis.conj().T @ _env_averaged_coupling(spec) @ basis
    d_s_part = np.diag(eps)
    d_se_part = np.diag(np.diag(coupling))
    n_se_part = coupling - d_se_part
    o_op = -1j * (d_s_part + d_se_part + n_se_part)
    anti_defect = float(np.abs(o_op + o_op.conj().T).max())
    if anti_defect > 1e-10:
        raise RuntimeError(f"generator lost anti-Hermiticity: defect {anti_defect:.3e}")
    ops = MasterOperators(o_op=o_op, d_s_part=d_s_part, d_se_part=d_se_part,
                          n_se_part=n_se_part)
    return CommutatorForm(rhs=rhs, residual=residual, operators=ops, h_eff=h_eff)


def evolve_rho_s(spec: CompositeSpec, t: float, t0: float = 0.0) -> np.ndarray:
    """rho_S(t) from the full density matrix: the per-time reference path."""
    return partial_trace_env(spec.propagator.rho_full(t - t0), spec.d_s, spec.d_e)


@dataclass(frozen=True)
class BlockMixture:
    rho_s: np.ndarray
    residual: float
    env_rotation: np.ndarray


def commuting_block_evolution(spec: CompositeSpec, t: float,
                              t0: float = 0.0) -> BlockMixture:
    """Independent oracle for couplings that commute with the environment energy.

    In the H_E eigenbasis such a coupling is a direct sum of system
    blocks B_a, and with environment weights diagonal there the reduced
    state is the fixed mixture

        rho_S(t) = sum_a d_aa exp(-i (H_S + B_a) dt) rho_S(0) exp(+i ...).

    Environment weights are rotated into the H_E eigenbasis first; the
    rotation used is reported in the result.
    """
    if spec.initial.kind == "entangled":
        raise PreconditionError("block mixture needs a product-type initial state")
    comm_norm = env_coupling_commutator_norm(spec)
    _, rot = np.linalg.eigh(spec.h_e)
    full_rot = tensor_product(np.eye(spec.d_s), rot)
    h_int = full_rot.conj().T @ (spec.coupling_strength * spec.h_se) @ full_rot
    blocks = h_int.reshape(spec.d_s, spec.d_e, spec.d_s, spec.d_e)
    off = blocks.copy()
    idx = np.arange(spec.d_e)
    off[:, idx, :, idx] = 0.0
    off_norm = float(np.abs(off).max())
    if off_norm > 1e-10:
        raise PreconditionError(
            f"coupling is not block diagonal in the environment eigenbasis "
            f"(off-block norm {off_norm:.3e}); [1 x H_E, H_SE] norm is {comm_norm:.3e}",
            commutator_norm=comm_norm)
    d_rot = rot.conj().T @ spec.initial.d_mat @ rot
    d_diag = np.real(np.diag(d_rot))
    if float(np.abs(d_rot - np.diag(d_diag)).max()) > 1e-10:
        raise PreconditionError(
            "environment weights are not diagonal in the H_E eigenbasis "
            "(degenerate H_E with mismatched weights)",
            commutator_norm=comm_norm)
    rho_s0 = spec.initial.rho_s0()
    rho = np.zeros_like(rho_s0)
    dt = t - t0
    for a in range(spec.d_e):
        u_a = mat_exp(spec.h_s + blocks[:, a, :, a], -1j * dt)
        rho = rho + d_diag[a] * (u_a @ rho_s0 @ u_a.conj().T)
    residual = float(np.abs(rho - evolve_rho_s(spec, t, t0)).max())
    return BlockMixture(rho_s=rho, residual=residual, env_rotation=rot)


@dataclass(frozen=True)
class MixedInvariance:
    max_defect: float
    unitarity_defect: float


def maximally_mixed_invariance(spec: CompositeSpec, grid: TimeGrid) -> MixedInvariance:
    """Invariance of the maximally mixed state and the closure identity.

    rho(0) = 1 / (d_s d_e) commutes with every Hamiltonian, so rho_S(t)
    must stay 1 / d_s on the whole grid.  The closure identity
    sum_{i, a, g} <j1 g|U|i a> <j2 g|U|i a>^* = d_e delta_{j1 j2} is
    evaluated at every grid time as well: it is the same reduction,
    Tr_E(U U^dag), applied to the U(t) stack.
    """
    conds = classify_sufficient_conditions(spec)
    if not conds.maximally_mixed:
        raise PreconditionError(
            "spec is not maximally mixed (need rho_S(0) = 1/d_s and "
            "environment weights 1/d_e)")
    eye_s = np.eye(spec.d_s)
    max_defect = 0.0
    unitarity_defect = 0.0
    for psi, u in spec.propagator.states(grid.times() - grid.t0, spec.initial.factor(),
                                         np.eye(spec.d_s * spec.d_e, dtype=complex)):
        max_defect = max(max_defect, float(
            np.abs(trace_env_factored(psi, spec.d_s) - eye_s / spec.d_s).max()))
        unitarity_defect = max(unitarity_defect, float(
            np.abs(trace_env_factored(u, spec.d_s) - spec.d_e * eye_s).max()))
    return MixedInvariance(max_defect=max_defect, unitarity_defect=unitarity_defect)
