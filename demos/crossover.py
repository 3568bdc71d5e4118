"""Crossover of the propagator amplitudes with the resonance strength.

The resonant propagator splits into two branches,
G1 = A1 exp(phi1 t) + A2 exp(phi2 t), with A1 + A2 = 1 = G1(0).  As the
resonance strength j1 runs from 0 to infinity (this j1 is half the kernel
j1 of the green scenarios), |A1| falls from 1 to 1/2 while |A2| climbs
from 0 to 1/2: the environment resonance converts a single decaying branch into an
equal two-branch interference, which is where the oscillations in
|G1(t)| come from.  Both branches decay whenever w = j0 + gamma exceeds
the branch-root magnitude C.
"""

import numpy as np

from markovlab import amplitude_phase

j1_values = np.concatenate(([0.0], np.logspace(-2, 6, 17)))
ap = amplitude_phase(es_level=1.5, j0=0.1, j1=j1_values, e0=1.0, gamma=0.2)
a1, a2 = np.abs(ap.a1), np.abs(ap.a2)

print("      j1      |A1|      |A2|   Re(phi1)   Re(phi2)  decays")
for row in zip(j1_values, a1, a2, ap.phi1_rate.real, ap.phi2_rate.real, ap.decays):
    print("{:10.3g}  {:8.5f}  {:8.5f}  {:9.5f}  {:9.5f}  {!s:>6}".format(*row))

print("\nendpoints:")
print(f"  |A1| at j1 = 0:   {a1[0]}  (exactly 1)")
print(f"  |A1| at j1 -> inf: {a1[-1]:.5f}  (approaches 1/2)")
total = ap.phi1_rate[0] + ap.phi2_rate[0]
print(f"  Re(phi1 + phi2) = {total.real:.6f} for every j1 "
      "(the root sum never moves)")
