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
    partial_trace_env,
    tensor_product,
    trace_env_factored,
)
from markovlab.spectral import TimeGrid

_COMMUTE_TOL = 1e-12
_STATE_TOL = 1e-12


class PreconditionError(RuntimeError):
    """A structure-specific oracle was invoked outside its validity domain."""


def exact_rho_dot(spec: CompositeSpec, t: float) -> np.ndarray:
    """d rho_S / dt at time t, computed as Tr_E(-i [H, rho(t)])."""
    prop = spec.propagator
    rho = prop.rho_full(t)
    comm = prop.hamiltonian @ rho - rho @ prop.hamiltonian
    return partial_trace_env(-1j * comm, spec.d_s, spec.d_e)


@dataclass(frozen=True)
class SufficientConditions:
    unique_env_state: bool
    commuting_he_hse: bool
    maximally_mixed: bool


def env_coupling_commutator_norm(spec: CompositeSpec) -> float:
    """Max entry of [1 x H_E, V * H_SE]."""
    he_full = tensor_product(np.eye(spec.d_s), spec.h_e)
    h_int = spec.coupling_strength * spec.h_se
    return float(np.abs(he_full @ h_int - h_int @ he_full).max())


def classify_sufficient_conditions(spec: CompositeSpec) -> SufficientConditions:
    unique = spec.d_e == 1
    commuting = env_coupling_commutator_norm(spec) < _COMMUTE_TOL
    mixed = False
    if spec.initial.d_mat is not None:
        rho_s0 = spec.initial.rho_s0
        mixed = bool(
            np.abs(rho_s0 - np.eye(spec.d_s) / spec.d_s).max() < _STATE_TOL
            and np.abs(spec.initial.d_mat - np.eye(spec.d_e) / spec.d_e).max() < _STATE_TOL
        )
    return SufficientConditions(unique_env_state=unique, commuting_he_hse=commuting,
                                maximally_mixed=mixed)


@dataclass(frozen=True)
class CommutatorForm:
    """rhs = -i [h_eff, rho_S]: the generator -i h_eff is anti-Hermitian as h_eff is Hermitian."""

    rhs: np.ndarray
    residual: float


def _effective_hamiltonian(spec: CompositeSpec) -> np.ndarray:
    """H_eff = H_S + V <H_SE>, averaged over product-type environment weights."""
    if spec.initial.d_mat is None:
        raise PreconditionError("commutator form needs a product-type initial state")
    h_int = (spec.coupling_strength * spec.h_se).reshape(spec.d_s, spec.d_e, spec.d_s, spec.d_e)
    return spec.h_s + np.einsum("iajb,ba->ij", h_int, spec.initial.d_mat)


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


def commutator_residuals(spec: CompositeSpec, times) -> tuple[np.ndarray, np.ndarray]:
    """Commutator-form residual and spectrum drift of rho_S at each time.

    The residual is that of :func:`effective_commutator_rhs`; the drift
    is the largest change of the sorted eigenvalues of rho_S(t) from
    those of rho_S(0), which a unitary reduced motion keeps.  With
    rho_S = a a^dag for the reshaped factor a (d_s x m), those
    eigenvalues are the squared singular values of a, padded with zeros.
    """
    h_eff = _effective_hamiltonian(spec)
    w0 = np.linalg.eigvalsh(spec.initial.rho_s0)

    def drift(psi):
        s2 = np.linalg.svd(psi.reshape(len(psi), spec.d_s, -1), compute_uv=False) ** 2
        w = np.pad(s2[:, ::-1], ((0, 0), (spec.d_s - s2.shape[1], 0)))
        return np.abs(w - w0).max(axis=1)

    blocks = [(_commutator_residuals(spec, psi, h_eff), drift(psi))
              for psi, in spec.propagator.states(np.asarray(times, float), spec.initial.factor)]
    return (np.concatenate([r for r, _ in blocks]),
            np.concatenate([d for _, d in blocks]))


def effective_commutator_rhs(spec: CompositeSpec, t: float) -> CommutatorForm:
    """Time-local commutator form of the reduced derivative.

    Valid exactly for a one-state environment, where
    H_eff = H_S + V <eta|H_SE|eta> generates the full reduced motion.
    Outside that case the call fails with the measured residual in its
    message.
    """
    h_eff = _effective_hamiltonian(spec)
    [(psi,)] = spec.propagator.states(np.array([t]), spec.initial.factor)
    rho_s = trace_env_factored(psi, spec.d_s)[0]
    rhs = -1j * (h_eff @ rho_s - rho_s @ h_eff)
    residual = float(_commutator_residuals(spec, psi, h_eff)[0])
    if spec.d_e != 1:
        raise PreconditionError(
            f"the commutator form is only exact for a one-state environment "
            f"(d_e = {spec.d_e}); measured residual {residual:.3e}")
    return CommutatorForm(rhs=rhs, residual=residual)


def evolve_rho_s(spec: CompositeSpec, t: float) -> np.ndarray:
    """rho_S(t) from the full density matrix: the per-time reference path."""
    return partial_trace_env(spec.propagator.rho_full(t), spec.d_s, spec.d_e)


@dataclass(frozen=True)
class BlockMixture:
    rho_s: np.ndarray
    residual: float


def commuting_block_evolution(spec: CompositeSpec, t: float) -> BlockMixture:
    """Independent oracle for couplings that commute with the environment energy.

    In the H_E eigenbasis such a coupling is a direct sum of system
    blocks B_a, and with environment weights diagonal there the reduced
    state is the fixed mixture

        rho_S(t) = sum_a d_aa exp(-i (H_S + B_a) t) rho_S(0) exp(+i ...),

    from one batched eigendecomposition of the (d_e, d_s, d_s) stack
    H_S + B_a.  Environment weights are rotated into the H_E eigenbasis
    first.  That decomposition is the spec's ``env_blocks``, formed once
    per spec; the preconditions are checked on every call.
    """
    if spec.initial.d_mat is None:
        raise PreconditionError("block mixture needs a product-type initial state")
    blocks = spec.env_blocks
    if blocks.off_norm > 1e-10:
        raise PreconditionError(
            f"coupling is not block diagonal in the environment eigenbasis "
            f"(off-block norm {blocks.off_norm:.3e}); [1 x H_E, H_SE] norm is "
            f"{env_coupling_commutator_norm(spec):.3e}")
    if blocks.weight_defect > 1e-10:
        raise PreconditionError(
            "environment weights are not diagonal in the H_E eigenbasis "
            "(degenerate H_E with mismatched weights)")
    w, v = blocks.eigvals, blocks.eigvecs
    u = (v * np.exp(-1j * t * w)[:, None, :]) @ v.conj().swapaxes(1, 2)
    orbits = u @ spec.initial.rho_s0 @ u.conj().swapaxes(1, 2)
    rho = (blocks.weights[:, None, None] * orbits).sum(axis=0)
    residual = float(np.abs(rho - evolve_rho_s(spec, t)).max())
    return BlockMixture(rho_s=rho, residual=residual)


@dataclass(frozen=True)
class MixedInvariance:
    max_defect: float
    unitarity_defect: float


def maximally_mixed_invariance(spec: CompositeSpec, grid: TimeGrid) -> MixedInvariance:
    """Invariance of the maximally mixed state and the closure identity.

    rho(0) = 1 / (d_s d_e) commutes with every Hamiltonian, so rho_S(t)
    must stay 1 / d_s on the whole grid.  The closure identity
    sum_{i, a, g} <j1 g|U|i a> <j2 g|U|i a>^* = d_e delta_{j1 j2} is
    Tr_E(U U^dag) = d_e 1, and rho_S(t) = Tr_E(U U^dag) / (d_s d_e), so
    one stack of U(t) over the grid gives both defects.
    """
    conds = classify_sufficient_conditions(spec)
    if not conds.maximally_mixed:
        raise PreconditionError(
            "spec is not maximally mixed (need rho_S(0) = 1/d_s and "
            "environment weights 1/d_e)")
    dim = spec.d_s * spec.d_e
    eye_s = np.eye(spec.d_s)
    max_defect = 0.0
    unitarity_defect = 0.0
    for u, in spec.propagator.states(grid.times() - grid.t0, np.eye(dim, dtype=complex)):
        closure = trace_env_factored(u, spec.d_s)
        max_defect = max(max_defect, float(np.abs(closure / dim - eye_s / spec.d_s).max()))
        unitarity_defect = max(unitarity_defect, float(
            np.abs(closure - spec.d_e * eye_s).max()))
    return MixedInvariance(max_defect=max_defect, unitarity_defect=unitarity_defect)
