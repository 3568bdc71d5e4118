"""Seeded workload batches and the correctness check of every run.

A workload is a fixed batch of scenario runs.  The seed picks the values
(level energies, spectral parameters, the ``seed`` key of each config, the
arrays handed to the API); the sizes of every run are fixed per workload,
so two seeds cost the same and only the inputs differ.  The program sees
only the generated config files and arrays.

A run is either a CLI invocation (``markovlab.cli.main``) or an API call.
Its check returns a list of problems, empty when the run is correct.
Checks tolerate last-digit changes: they compare numbers within stated
tolerances, never CSV bytes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("green", "dynamics")

#: Seed whose tabulated and finite-cut results are pinned in reference.json.
DEFAULT_SEED = 0

#: Absolute tolerance of the Volterra march against a closed form.  The
#: trapezoid march is second order; every grid here keeps h * scale <= 0.02,
#: where the measured error stays below 1e-5.
GREEN_TOL = 1e-4
#: Agreement with a recorded reference value (last-digit changes pass).
REFERENCE_TOL = 1e-9
#: |g1| may exceed 1 by this much (a positive J(omega) only damps).
UNIT_BOUND_TOL = 1e-6
#: Divisibility thresholds.  The program draws random triples, and a triple
#: with ts close to t has a defect proportional to t - ts, so the scenario's
#: default of 1e-4 fails about one run in 200 for no fault of the program;
#: 1e-8 is still seven orders above round-off.  Both go into the configs.
DIVISIBLE_TOL = 1e-10
NONDIVISIBLE_MIN = 1e-8
#: Round-off tolerance of exact identities (trace distances, oracles).
EXACT_TOL = 1e-9


@dataclass
class Run:
    """One scenario run of a batch.

    ``config`` is the text of a CLI config file, or None for an API run,
    whose ``call(ml)`` receives the ``markovlab`` package and returns a
    result.  ``check`` takes the run's outcome and returns its problems.
    """

    name: str
    check: Callable
    config: str | None = None
    call: Callable | None = None

    @property
    def csv_name(self) -> str:
        """The ``out`` key of a CLI run's config."""
        return dict(line.split(" = ", 1) for line in self.config.splitlines())["out"]


@dataclass
class Outcome:
    """What a run produced: an exit status and files, or an API result."""

    status: int | None = None
    csv_path: str | None = None
    summary_path: str | None = None
    result: object = None


# ------------------------------------------------------------ formatting


def _num(x) -> str:
    return repr(float(x))


def _vec(values) -> str:
    return "[" + ", ".join(_num(v) for v in values) + "]"


def _config(**values) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def _unit(rng, n) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _cvec(values) -> str:
    def one(z):
        return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"
    return "[" + ", ".join(one(complex(z)) for z in values) + "]"


def _hermitian(rng, n) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


# ----------------------------------------------------------- CSV checks


def _read_csv(outcome: Outcome, problems: list):
    """Header and float table of a CLI run; records exit/summary problems."""
    if outcome.status != 0:
        problems.append(f"exit status {outcome.status}")
        return None, None
    with open(outcome.summary_path, encoding="utf-8") as fh:
        last = fh.read().rstrip("\n").rsplit("\n", 1)[-1]
    if last != "result: PASS":
        problems.append(f"summary ends with {last!r}")
    with open(outcome.csv_path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, table


def _shape(problems, header, table, columns, rows) -> bool:
    if header != columns:
        problems.append(f"columns {header} != {columns}")
        return False
    if table.shape[0] != rows:
        problems.append(f"{table.shape[0]} rows, expected {rows}")
        return False
    return True


def _within(problems, what, deviation, tol):
    if not deviation <= tol:
        problems.append(f"{what}: {deviation:.3e} > {tol:.1e}")


def _green_columns(levels: int) -> list:
    columns = ["t"]
    for k in range(levels):
        columns += [f"re_g1_{k}", f"im_g1_{k}", f"abs_g1_{k}", f"re_g2_{k}", f"im_g2_{k}"]
    return columns


def _green_table(problems, outcome, levels, steps):
    """g1, g2 columns (times x levels) of a ``green`` CSV, or None."""
    header, table = _read_csv(outcome, problems)
    if header is None or not _shape(problems, header, table, _green_columns(levels),
                                    steps + 1):
        return None, None
    cols = table[:, 1:].reshape(steps + 1, levels, 5)
    g1 = cols[:, :, 0] + 1j * cols[:, :, 1]
    g2 = cols[:, :, 3] + 1j * cols[:, :, 4]
    _within(problems, "abs_g1 column vs re/im", np.abs(np.abs(g1) - cols[:, :, 2]).max(),
            EXACT_TOL)
    return g1, g2


def _unit_invariants(problems, g1, g2):
    _within(problems, "g1(0) - 1", np.abs(g1[0] - 1.0).max(), 0.0)
    _within(problems, "g2(0)", np.abs(g2[0]).max(), 0.0)
    _within(problems, "|g1| - 1", np.abs(g1).max() - 1.0, UNIT_BOUND_TOL)


class Recorder(dict):
    """Passed as ``reference``, collects the sampled values instead of checking."""


def _reference(problems, reference, name, values):
    """Compare sampled values with the reference recorded for the default seed."""
    if reference is None:
        return
    if isinstance(reference, Recorder):
        reference[name] = [values.real.tolist(), values.imag.tolist()]
        return
    if name not in reference:
        problems.append(f"no reference recorded for {name}")
        return
    ref = np.array(reference[name][0]) + 1j * np.array(reference[name][1])
    _within(problems, "deviation from reference", np.abs(values - ref).max(),
            REFERENCE_TOL)


def reference_samples(g1: np.ndarray) -> np.ndarray:
    """The g1 values pinned per run: 9 evenly spaced times, every level."""
    idx = np.linspace(0, g1.shape[0] - 1, 9).round().astype(int)
    return g1[idx]


# -------------------------------------------------- green: march kernels


def _green_march(rng, tiny: bool, oracles) -> list[Run]:
    """Closed-form kernels: the time goes to the Volterra march and the writer."""
    # (density, levels, steps): march and writer cost grow with steps^2 *
    # levels and steps * levels.  Sizes are set so that the run latencies of
    # a pass fall in blocks of equal cost.  Five runs of a pass are cheaper
    # than the three 2 x 4000 runs (two here, one green-analytic) and five
    # dearer, so the median is the middle of that block, not its edge; the
    # tail percentile falls inside the two 3 x 8000 runs and the two
    # tabulated-kernel runs.
    shapes = [("lorentzian", 1, 2000), ("constant", 2, 2000),
              ("lorentzian", 2, 4000), ("lorentzian", 2, 4000),
              ("lorentzian", 3, 8000), ("lorentzian", 3, 8000),
              ("constant", 1, 16000)]
    if tiny:
        shapes = [("lorentzian", 2, 40), ("constant", 1, 40)]
    h = 0.005
    runs = []
    for k, (kind, levels, steps) in enumerate(shapes):
        es = np.sort(rng.uniform(-1.0, 1.0, levels))
        j0 = rng.uniform(0.05, 0.3)
        pars = dict(scenario="green", es=_vec(es), j0=_num(j0))
        if kind == "lorentzian":
            j1, e0, gamma = rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.0)
            pars.update(j1=_num(j1), e0=_num(e0), gamma=_num(gamma))
        pars.update(t1=_num(h * steps), steps=steps, out=f"march{k}.csv")
        runs.append(Run(f"green-{kind}-{levels}x{steps}-{k}",
                        _march_check(oracles, es, pars, steps), config=_config(**pars)))

    levels, steps = (2, 40) if tiny else (2, 4000)
    es = np.sort(rng.uniform(-1.0, 1.0, levels))
    pars = dict(scenario="green-analytic", es=_vec(es), j0=_num(rng.uniform(0.05, 0.3)),
                j1=_num(rng.uniform(0.5, 2.0)), e0=_num(rng.uniform(-0.5, 0.5)),
                gamma=_num(rng.uniform(0.3, 1.0)), t1=_num(h * steps), steps=steps,
                out="analytic.csv")
    runs.append(Run(f"green-analytic-{levels}x{steps}",
                    _analytic_check(oracles, es, pars, steps), config=_config(**pars)))

    # amp-phase labels the two j1 = 0 branches by the sign of es_level - e0,
    # while its endpoint check expects a1 = 1 there: the level is drawn
    # above the resonance so that check is meaningful
    e0, gamma = rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.0)
    es_level, j0 = e0 + rng.uniform(0.1, 1.0), rng.uniform(0.05, 0.3)
    j1_values = np.concatenate([[0.0], np.geomspace(1e-3, 1e8, 8 if tiny else 60)])
    pars = dict(scenario="amp-phase", es_level=_num(es_level), j0=_num(j0), e0=_num(e0),
                gamma=_num(gamma), j1_values=_vec(j1_values), out="ampphase.csv")
    runs.append(Run(f"amp-phase-{j1_values.size}",
                    _amp_phase_check(es_level, j0, e0, gamma, j1_values),
                    config=_config(**pars)))
    return runs


def _closed_form(oracles, es, pars, steps):
    """Closed-form g1 on the run's grid, one column per level."""
    grid = oracles.TimeGrid(0.0, float(pars["t1"]), steps)
    if "j1" in pars:
        sol = oracles.analytic_green1_lorentzian(
            es, float(pars["j0"]), float(pars["j1"]), float(pars["e0"]),
            float(pars["gamma"]), grid)
    else:
        sol = oracles.analytic_green_const(es, float(pars["j0"]), grid)
    return np.diagonal(sol.g1, axis1=1, axis2=2)


def _march_check(oracles, es, pars, steps):
    def check(outcome):
        problems = []
        g1, g2 = _green_table(problems, outcome, es.size, steps)
        if g1 is None:
            return problems
        # g1 only: for levels off zero energy the g2 of analytic_green_const
        # (j0 dt times the g1 exponential) is not the solution of the g2
        # equation the solver marches, so it is no oracle for g2
        ana = _closed_form(oracles, es, pars, steps)
        _within(problems, "g1 vs closed form", np.abs(g1 - ana).max(), GREEN_TOL)
        _unit_invariants(problems, g1, g2)
        return problems
    return check


def _analytic_check(oracles, es, pars, steps):
    def check(outcome):
        problems = []
        header, table = _read_csv(outcome, problems)
        columns = ["t"] + [f"{c}_{k}" for k in range(es.size)
                           for c in ("abs_num", "abs_ana", "dev")]
        if header is None or not _shape(problems, header, table, columns, steps + 1):
            return problems
        cols = table[:, 1:].reshape(steps + 1, es.size, 3)
        ref = np.abs(_closed_form(oracles, es, pars, steps))
        _within(problems, "abs_ana vs closed form", np.abs(cols[:, :, 1] - ref).max(),
                EXACT_TOL)
        _within(problems, "abs_num vs closed form", np.abs(cols[:, :, 0] - ref).max(),
                GREEN_TOL)
        _within(problems, "dev column", cols[:, :, 2].max(), GREEN_TOL)
        return problems
    return check


def _amp_phase_check(es_level, j0, e0, gamma, j1_values):
    def check(outcome):
        problems = []
        header, table = _read_csv(outcome, problems)
        columns = ["j1", "abs_a1", "abs_a2", "re_phi1_rate", "im_phi1_rate",
                   "re_phi2_rate", "im_phi2_rate", "decays"]
        if header is None or not _shape(problems, header, table, columns, j1_values.size):
            return problems
        _within(problems, "j1 column", np.abs(table[:, 0] - j1_values).max(), 0.0)
        # the two rates are the roots of one quadratic: their sum is fixed
        # by the level and resonance energies and widths alone
        rate_sum = table[:, 3] + table[:, 5] + 1j * (table[:, 4] + table[:, 6])
        expected = -1j * ((es_level + e0) - 1j * (j0 + gamma))
        _within(problems, "phi1 + phi2 rate sum",
                np.abs(rate_sum - expected).max() / abs(expected), EXACT_TOL)
        _within(problems, "j1 = 0 amplitudes",
                max(abs(table[0, 1] - 1.0), abs(table[0, 2])), EXACT_TOL)
        if not set(np.unique(table[:, 7])) <= {0.0, 1.0}:
            problems.append("decays column is not 0/1")
        return problems
    return check


# ---------------------------------------------- green: quadrature kernels


def _green_kernel(rng, tiny: bool, reference) -> list[Run]:
    """Quadrature kernels (tabulated, finite cut-off): the march is a few percent."""
    nodes, tab_steps = (12, 10) if tiny else (80, 100)
    # Two finite-cut runs keep the counts below and above the median block
    # equal.  The quadrature cost depends on the resonance shape (e0, gamma,
    # omega_cut), so that is fixed per run; the seed draws the levels and
    # strengths.
    cut_steps = (10, 10) if tiny else (160, 160)
    cut_shapes = ((-0.3, 0.4), (0.1, 0.6))   # (e0, gamma)
    # h * (max |es| + peak J) stays below 0.08, inside the 0.1 step guard
    h_tab, h_cut = 0.04, 0.025
    runs = []
    for k in range(2):
        omega = np.linspace(-4.0, 4.0, nodes)
        centre, width = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5)
        values = (rng.uniform(0.3, 0.8) * np.exp(-0.5 * ((omega - centre) / width) ** 2)
                  + rng.uniform(0.0, 0.1, nodes))
        es = np.sort(rng.uniform(-1.0, 1.0, 2))
        runs.append(Run(f"tabulated-{nodes}x{tab_steps}-{k}",
                        _tabulated_check(reference, f"tabulated-{k}"),
                        call=_tabulated_call(omega, values, es, h_tab * tab_steps, tab_steps)))
    for k, steps in enumerate(cut_steps):
        levels = 1 + k % 2
        e0, gamma = cut_shapes[k]
        pars = dict(scenario="green", es=_vec(np.sort(rng.uniform(-1.0, 1.0, levels))),
                    j0=_num(rng.uniform(0.05, 0.3)), j1=_num(rng.uniform(0.5, 1.5)),
                    e0=_num(e0), gamma=_num(gamma),
                    omega_cut=_num(4.0 * gamma),
                    t1=_num(h_cut * steps), steps=steps, out=f"cut{k}.csv")
        runs.append(Run(f"green-cut-{levels}x{steps}-{k}",
                        _cut_check(reference, f"cut-{k}", levels, steps),
                        config=_config(**pars)))
    return runs


def _tabulated_call(omega, values, es, t1, steps):
    def call(ml):
        density = ml.SpectralDensity.tabulated(omega, values)
        grid = ml.TimeGrid(0.0, t1, steps)
        return ml.solve_green(ml.GreenProblem(es=es, density=density, grid=grid),
                              strict=True)
    return call


def _tabulated_check(reference, key):
    def check(outcome):
        problems = []
        sol = outcome.result
        g1 = np.diagonal(sol.g1, axis1=1, axis2=2)
        g2 = np.diagonal(sol.g2, axis1=1, axis2=2)
        if not (np.isfinite(g1).all() and np.isfinite(g2).all()):
            return ["non-finite propagator"]
        _unit_invariants(problems, g1, g2)
        _reference(problems, reference, key, reference_samples(g1))
        return problems
    return check


def _cut_check(reference, key, levels, steps):
    def check(outcome):
        problems = []
        g1, g2 = _green_table(problems, outcome, levels, steps)
        if g1 is not None:
            _unit_invariants(problems, g1, g2)
            _reference(problems, reference, key, reference_samples(g1))
        return problems
    return check


# ---------------------------------------------------------------- dynamics


def _dynamics(rng, tiny: bool, large: bool) -> list[Run]:
    """Divisibility, master-equation and entropy/witness scenarios.

    ``large`` uses composite dimension 32-64 with few times and triples,
    where BLAS-bound eigendecompositions and contractions dominate; the
    small half uses dimension 2-16 with long grids, where per-call Python
    overhead of the per-time loops dominates.  Run and file names carry
    the half's prefix.
    """
    tag = "large" if large else "small"
    if large:
        div = [(8, 8, 3), (4, 16, 3), (16, 4, 1)]
        ent = [(16, 4, 2), (8, 8, 4)]
        master = (64, 20)
        grid_dims = [("entropy", 8, 8), ("entropy", 16, 4), ("stationarity", 4, 16),
                     ("witness", 8, 8)]
        sweep = (8, 8, 2)
        mmi, cbe = (8, 8), (16, 4, 4)
        steps, n_sweep = 100, 2
    else:
        div = [(2, 1, 20), (4, 4, 20)]
        ent = [(2, 2, 20), (4, 1, 20)]
        master = (4, 100)
        grid_dims = [("entropy", 2, 2), ("entropy", 4, 4), ("stationarity", 8, 2),
                     ("witness", 2, 1), ("witness", 4, 4)]
        sweep = (4, 1, 5)
        mmi, cbe = (4, 4), (2, 4, 20)
        steps, n_sweep = 400, 4
    if tiny:
        div, ent = [(2, 1, 2), (2, 2, 2)], [(2, 2, 2)]
        master = (2, 3)
        grid_dims = [("entropy", 2, 2), ("stationarity", 2, 2), ("witness", 2, 1)]
        sweep, mmi, cbe = (2, 1, 1), (2, 2), (2, 2, 2)
        steps, n_sweep = 8, 2

    def seed():
        return int(rng.integers(2**31 - 1))

    def expectation(d_e):
        if d_e == 1:
            return "divisible", {"expect": "divisible", "tol_divisible": _num(DIVISIBLE_TOL)}
        return "nondivisible", {"expect": "nondivisible",
                                "tol_nondivisible": _num(NONDIVISIBLE_MIN)}

    runs = []
    for scenario, items in (("divisibility", div), ("entangled", ent)):
        for d_s, d_e, n in items:
            expect, keys = expectation(d_e)
            pars = dict(scenario=scenario, dS=d_s, dE=d_e, seed=seed(),
                        coupling_strength=_num(rng.uniform(0.5, 2.0)), n_triples=n,
                        t_max=_num(2.0), **keys, out=f"{tag}-{scenario}.csv")
            runs.append(Run(f"{tag}-{scenario}-{d_s}x{d_e}-{n}",
                            _defect_check(["t0", "ts", "t", "defect"], n, expect),
                            config=_config(**pars)))
    d_s, n = master
    pars = dict(scenario="master-check", dS=d_s, dE=1, seed=seed(),
                coupling_strength=_num(rng.uniform(0.5, 2.0)), n_times=n,
                t_max=_num(2.0), out=f"{tag}-master.csv")
    runs.append(Run(f"{tag}-master-check-{d_s}x1-{n}", _master_check(n),
                    config=_config(**pars)))
    for scenario, d_s, d_e in grid_dims:
        pars = dict(scenario=scenario, dS=d_s, dE=d_e, seed=seed(),
                    coupling_strength=_num(rng.uniform(0.5, 2.0)),
                    t1=_num(rng.uniform(3.0, 5.0)), steps=steps,
                    out=f"{tag}-{scenario}-{d_s}x{d_e}.csv")
        if scenario == "witness":
            c_a, c_b = _unit(rng, d_s), _unit(rng, d_s)
            pars.update(cA=_cvec(c_a), cB=_cvec(c_b))
            check = _witness_check(steps, c_a, c_b, d_e)
        elif scenario == "entropy":
            check = _entropy_check(steps, d_s)
        else:
            check = _stationarity_check(steps)
        runs.append(Run(f"{tag}-{scenario}-{d_s}x{d_e}-{steps}", check,
                        config=_config(**pars)))

    d_s, d_e, n = sweep
    expect, keys = expectation(d_e)
    values = np.sort(rng.uniform(0.5, 4.0, n_sweep))
    pars = dict(scenario="sweep", base="divisibility", dS=d_s, dE=d_e, seed=seed(),
                n_triples=n, t_max=_num(2.0), **keys,
                sweep_key="coupling_strength", sweep_values=_vec(values),
                out=f"{tag}-sweep.csv")
    runs.append(Run(f"{tag}-sweep-divisibility-{d_s}x{d_e}-{n_sweep}x{n}",
                    _defect_check(["coupling_strength", "t0", "ts", "t", "defect"],
                                  n * n_sweep, expect),
                    config=_config(**pars)))

    d_s, d_e = mmi
    arrays = (_hermitian(rng, d_s), _hermitian(rng, d_e), _hermitian(rng, d_s * d_e))
    runs.append(Run(f"{tag}-maximally-mixed-{d_s}x{d_e}-{steps}", _mmi_check,
                    call=_mmi_call(arrays, rng.uniform(0.5, 2.0), rng.uniform(3.0, 5.0),
                                   steps)))
    d_s, d_e, n = cbe
    runs.append(Run(f"{tag}-commuting-block-{d_s}x{d_e}-{n}", _cbe_check,
                    call=_cbe_call(rng, d_s, d_e, n)))
    return runs


def _defect_check(columns, rows, expect):
    def check(outcome):
        problems = []
        header, table = _read_csv(outcome, problems)
        if header is None or not _shape(problems, header, table, columns, rows):
            return problems
        defects = table[:, -1]
        if expect == "divisible":
            _within(problems, "largest divisibility defect", defects.max(), DIVISIBLE_TOL)
        elif not defects.min() >= NONDIVISIBLE_MIN:
            problems.append(f"smallest defect {defects.min():.3e} < {NONDIVISIBLE_MIN:.0e}")
        return problems
    return check


def _master_check(rows):
    def check(outcome):
        problems = []
        header, table = _read_csv(outcome, problems)
        if header is None or not _shape(problems, header, table,
                                        ["t", "residual", "eig_drift"], rows):
            return problems
        _within(problems, "commutator-form residual", table[:, 1].max(), 1e-10)
        _within(problems, "spectrum drift", table[:, 2].max(), 1e-9)
        return problems
    return check


def _entropy_check(steps, d_s):
    def check(outcome):
        problems = []
        header, table = _read_csv(outcome, problems)
        if header is None or not _shape(problems, header, table, ["t", "entropy"],
                                        steps + 1):
            return problems
        s = table[:, 1]
        # a pure initial system state has zero entropy; log d_s bounds it after
        _within(problems, "initial entropy", abs(s[0]), EXACT_TOL)
        _within(problems, "entropy above log dS", s.max() - math.log(d_s), EXACT_TOL)
        _within(problems, "negative entropy", -s.min(), EXACT_TOL)
        return problems
    return check


def _stationarity_check(steps):
    def check(outcome):
        problems = []
        header, table = _read_csv(outcome, problems)
        if header is None or not _shape(problems, header, table, ["t", "distance"],
                                        steps + 1):
            return problems
        d = table[:, 1]
        _within(problems, "initial distance", abs(d[0]), EXACT_TOL)
        _within(problems, "distance outside [0, 1]",
                max(-d.min(), d.max() - 1.0), EXACT_TOL)
        return problems
    return check


def _witness_check(steps, c_a, c_b, d_e):
    # trace distance of two pure states: sqrt(1 - |<a|b>|^2)
    d0 = math.sqrt(max(0.0, 1.0 - abs(np.vdot(c_a, c_b)) ** 2))

    def check(outcome):
        problems = []
        header, table = _read_csv(outcome, problems)
        if header is None or not _shape(problems, header, table,
                                        ["t", "distance", "rate"], steps + 1):
            return problems
        d = table[:, 1]
        _within(problems, "initial distance vs pure-state formula", abs(d[0] - d0),
                EXACT_TOL)
        _within(problems, "distance outside [0, 1]", max(-d.min(), d.max() - 1.0),
                EXACT_TOL)
        if d_e == 1:
            # a one-state environment leaves the reduced motion unitary
            _within(problems, "distance drift (unitary)", np.abs(d - d0).max(), EXACT_TOL)
        return problems
    return check


def _mmi_call(arrays, coupling, t1, steps):
    h_s, h_e, h_se = arrays
    d_s, d_e = h_s.shape[0], h_e.shape[0]

    def call(ml):
        initial = ml.InitialState.mixed_product(np.eye(d_s) / d_s, np.eye(d_e) / d_e)
        spec = ml.CompositeSpec(d_s=d_s, d_e=d_e, h_s=h_s, h_e=h_e, h_se=h_se,
                                initial=initial, coupling_strength=coupling)
        return ml.maximally_mixed_invariance(spec, ml.TimeGrid(0.0, t1, steps))
    return call


def _mmi_check(outcome):
    problems = []
    _within(problems, "maximally mixed drift", outcome.result.max_defect, EXACT_TOL)
    _within(problems, "closure identity", outcome.result.unitarity_defect, EXACT_TOL)
    return problems


def _cbe_call(rng, d_s, d_e, n_times):
    """Coupling block diagonal in the (diagonal) H_E eigenbasis: sum_a B_a x |a><a|."""
    h_s = _hermitian(rng, d_s)
    h_e = np.diag(rng.uniform(-1.0, 1.0, d_e)).astype(complex)
    h_se = sum(np.kron(_hermitian(rng, d_s), np.diag(np.eye(d_e)[a]))
               for a in range(d_e))
    c = _unit(rng, d_s)
    weights = rng.uniform(0.1, 1.0, d_e)
    d_mat = np.diag(weights / weights.sum()).astype(complex)
    coupling = rng.uniform(0.5, 2.0)
    times = np.sort(rng.uniform(0.1, 3.0, n_times))

    def call(ml):
        spec = ml.CompositeSpec(d_s=d_s, d_e=d_e, h_s=h_s, h_e=h_e, h_se=h_se,
                                initial=ml.InitialState.product(c, d_mat),
                                coupling_strength=coupling)
        return [ml.commuting_block_evolution(spec, float(t)) for t in times]
    return call


def _cbe_check(outcome):
    problems = []
    for block in outcome.result:
        _within(problems, "block-mixture oracle residual", block.residual, EXACT_TOL)
        _within(problems, "block-mixture trace", abs(np.trace(block.rho_s) - 1.0), EXACT_TOL)
    return problems


# ------------------------------------------------------------------ batches


def build_batch(workload: str, seed: int, oracles, reference=None,
                tiny: bool = False) -> list[Run]:
    """The workload's fixed batch for ``seed``.

    ``oracles`` is the ``markovlab`` package; checks call its closed forms
    with tracing paused.  ``reference`` holds the
    recorded values for the default seed; pass None to skip that check.
    ``tiny`` shrinks every size for the self-tests and the warm-up.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "green":
        return _green_march(rng, tiny, oracles) + _green_kernel(rng, tiny, reference)
    if workload == "dynamics":
        return _dynamics(rng, tiny, large=False) + _dynamics(rng, tiny, large=True)
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(runs: list[Run], work_dir: str) -> dict:
    """Write each CLI run's config file; return name -> path."""
    os.makedirs(work_dir, exist_ok=True)
    paths = {}
    for run in runs:
        if run.config is not None:
            paths[run.name] = os.path.join(work_dir, run.name + ".cfg")
            with open(paths[run.name], "w", encoding="utf-8") as fh:
                fh.write(run.config)
    return paths
