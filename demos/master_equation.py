"""Time-local master equations: the three structures that admit one.

The exact derivative of the reduced state always exists, but it only
collapses to a generator acting in system space alone for special
environment structures.  Each admits an independent oracle:

  * one-state environment: d rho/dt = -i [H_eff, rho] with
    H_eff = H_S + <eta|H_SE|eta>; the reduced motion is unitary and the
    spectrum of rho_S never moves (no decoherence);
  * coupling commuting with the environment energy (block diagonal, with
    diagonal environment weights, in the eigenbasis of H_E): rho_S(t) is
    a fixed mixture of unitary orbits, one per environment level;
  * maximally mixed initial data: rho never moves at all.
"""

import numpy as np

from markovlab import (
    CompositeSpec,
    InitialState,
    TimeGrid,
    classify_sufficient_conditions,
    commuting_block_evolution,
    commutator_residuals,
    maximally_mixed_invariance,
    random_amplitudes,
    random_env_weights,
    random_hermitian,
    random_product_spec,
)

rng = np.random.default_rng(3)

print("case 1: one environment state, strong coupling")
spec = random_product_spec(3, 1, rng, coupling_strength=4.0)
print(f"  classification: {classify_sufficient_conditions(spec)}")
times = [0.5, 1.5, 2.5]
for t, residual, drift in zip(times, *commutator_residuals(spec, times)):
    print(f"  t = {t}: commutator-form residual {residual:.3e}, spectrum drift {drift:.3e}")

print("\ncase 2: coupling commutes with the environment energy")
d_s, d_e = 2, 3
h_se = np.zeros((d_s * d_e, d_s * d_e), dtype=complex)
for a in range(d_e):
    proj = np.zeros((d_e, d_e))
    proj[a, a] = 1.0
    h_se += np.kron(random_hermitian(d_s, rng), proj)
spec2 = CompositeSpec(d_s=d_s, d_e=d_e, h_s=random_hermitian(d_s, rng),
                      h_e=np.diag([0.2, 0.9, 1.7]).astype(complex), h_se=h_se,
                      initial=InitialState.product(random_amplitudes(d_s, rng),
                                                   random_env_weights(d_e, rng)))
print(f"  classification: {classify_sufficient_conditions(spec2)}")
for t in (0.8, 2.1):
    block = commuting_block_evolution(spec2, t)
    print(f"  t = {t}: block-mixture oracle residual {block.residual:.3e}")

print("\ncase 3: maximally mixed initial data")
spec3 = CompositeSpec(d_s=2, d_e=3, h_s=random_hermitian(2, rng),
                      h_e=random_hermitian(3, rng), h_se=random_hermitian(6, rng),
                      initial=InitialState.mixed_product(np.eye(2) / 2, np.eye(3) / 3))
inv = maximally_mixed_invariance(spec3, TimeGrid(0.0, 2.0, 40))
print(f"  classification: {classify_sufficient_conditions(spec3)}")
print(f"  drift from 1/d_s: {inv.max_defect:.3e}, "
      f"closure identity defect: {inv.unitarity_defect:.3e}")
