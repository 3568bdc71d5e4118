"""Level propagators under flat and resonant environment spectra.

A single level of energy e = 1 couples to an environment described by a
spectral density J(omega).  With a flat J the memory kernel collapses to
an instantaneous delta and |G1(t)| decays as a clean exponential at rate
J0: that is memoryless behaviour.  Adding a Lorentzian resonance gives
the kernel a finite correlation time, and the decay picks up
oscillations: information flows back and forth before it is lost.
"""

import numpy as np

from markovlab import (
    GreenProblem,
    SpectralDensity,
    TimeGrid,
    analytic_green1_lorentzian,
    solve_green,
)

es = np.array([1.0])
grid = TimeGrid(0.0, 10.0, 5000)
t = grid.times()

# flat spectrum: pure exponential decay, slope -J0 in log scale
flat = solve_green(GreenProblem(es=es, density=SpectralDensity.constant(0.2), grid=grid))
g1_flat = flat.g1[:, 0, 0]
slope = np.polyfit(t[1:], np.log(np.abs(g1_flat[1:])), 1)[0]
print("flat background J0 = 0.2")
print(f"  fitted decay slope of log|G1|: {slope:.6f}  (expected -0.200000)")

# resonant spectrum: the same solver, now with a smooth memory kernel
dens = SpectralDensity.lorentzian(j0=0.1, j1=1.0, e0=1.0, gamma=0.2)
res = solve_green(GreenProblem(es=es, density=dens, grid=grid))
g1_res = res.g1[:, 0, 0]
ana = analytic_green1_lorentzian(es, 0.1, 1.0, 1.0, 0.2, grid)
g1_ana = ana.g1[:, 0, 0]
print("\nLorentzian resonance j1 = 1.0, e0 = 1.0, gamma = 0.2")
print(f"  solver vs closed form, max deviation: {np.abs(g1_res - g1_ana).max():.3e}")

print("\n  t      |G1| flat   |G1| resonant")
for k in range(0, len(t), 500):
    print(f"  {t[k]:5.2f}  {abs(g1_flat[k]):10.6f}  {abs(g1_res[k]):12.6f}")

dips = np.sum(np.diff(np.sign(np.diff(np.abs(g1_res)))) != 0)
print(f"\nthe resonant propagator changes slope {dips} times: "
      "oscillations on top of decay, the signature of memory")
