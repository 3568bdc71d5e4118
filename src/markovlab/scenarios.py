"""Named experiment scenarios: run, write CSV + summary, return exit status.

Every scenario writes one CSV table and a plain-text summary listing
each check with its measured value, bound and PASS/FAIL status.  The
table is a header row of column names, then one line per row in which
every cell is ``'%.17g' % float(v)`` (so a flag is 1 or 0), cells joined
by ``,`` and every line ended by ``\\n``.  Identical configurations
produce byte identical output; random pieces of a problem are always
drawn from the explicit integer ``seed`` key in a fixed order.

Each output file is replaced whole: the bytes go to a temp file in the
same directory, the old file is removed and the temp file is renamed
into place.  A reader sees the old file, briefly no file, or the new one
complete, and a run that fails while writing leaves the old file as it
was.  An output path that is a symlink or a hard link is replaced by a
new regular file; the link's target is not written.

Exit status: 0 all checks pass, 1 a scientific check failed, 2 usage or
configuration error (raised as :class:`ConfigError` for the CLI).
"""

from __future__ import annotations

import itertools
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np

from markovlab.config import ConfigError, ScenarioConfig
from markovlab.csvtext import csv_blocks
from markovlab.dynamics import (
    CompositeSpec,
    InitialState,
    distinguishability_witness,
    divisibility_defect,
    entangled_divisibility,
    entropy_sie_check,
    environment_stationarity,
)
from markovlab.linalg import DomainError
from markovlab.master import commutator_residuals
from markovlab.sampling import random_amplitudes, random_env_weights, random_hermitian
from markovlab.spectral import (
    GreenProblem,
    SpectralDensity,
    TimeGrid,
    analytic_green1_lorentzian,
    crossover_sweep,
    solve_green,
)


@dataclass(frozen=True)
class CheckRow:
    name: str
    measured: float
    bound: float
    mode: str = "<="   # "<=" or ">="

    @property
    def passed(self) -> bool:
        if self.mode == "<=":
            return self.measured <= self.bound
        return self.measured >= self.bound


@dataclass
class ScenarioResult:
    columns: list
    rows: list
    checks: list = field(default_factory=list)
    info: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _write_csv(path: str, columns, rows):
    """Header, then one line per row of a float table (2-d array or lists).

    Every cell is ``'%.17g' % float(v)``, so a flag is written as 1 or 0;
    :func:`markovlab.csvtext.csv_blocks` makes the bytes.
    """
    table = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(columns))
    header = (",".join(columns) + "\n").encode()
    _replace_file(path, itertools.chain([header], csv_blocks(table)))


def _replace_file(path: str, chunks) -> None:
    """Stream byte chunks into a temp file beside ``path``, then move it onto ``path``.

    The old file is unlinked before the rename rather than replaced by it:
    ext4 (``auto_da_alloc``) treats a rename over an existing file like a
    truncate and flushes the new data at once, which costs as much as
    rewriting the file in place.  On any error the temp file is removed.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        with suppress(FileNotFoundError):
            os.unlink(path)
        os.rename(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _summary_text(scenario: str, csv_name: str, result: ScenarioResult) -> str:
    lines = [f"scenario: {scenario}", f"csv: {csv_name}"]
    lines.extend(result.info)
    if result.checks:
        width = max(len(c.name) for c in result.checks)
        for c in result.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{c.name:<{width}}  measured {c.measured:.6e}  "
                         f"{c.mode} {c.bound:.6e}  {status}")
    else:
        lines.append("no checks configured")
    lines.append(f"result: {'PASS' if result.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------- grid and spec IO


#: config key of each argument a domain object names that the config spells otherwise
_CONFIG_KEYS = {"d_s": "dS", "d_e": "dE", "h_s": "hS", "h_e": "hE", "h_se": "hSE",
                "s_weights": "smat", "d_mat": "dmat"}


@contextmanager
def _keyed(**keys):
    """Re-raise a DomainError as a ConfigError keyed by the config key of its argument.

    Every runner runs inside ``_keyed()``; a runner whose config spells an
    argument otherwise wraps that call in ``_keyed(arg=key)``.
    """
    try:
        yield
    except DomainError as exc:
        raise ConfigError(str(exc), key={**_CONFIG_KEYS, **keys}.get(exc.arg, exc.arg)) from None


def _grid_from(cfg: ScenarioConfig, t1_default: float, steps_default: int) -> TimeGrid:
    return TimeGrid(cfg.get_float("t0", 0.0),
                    cfg.get_float("t1", t1_default),
                    cfg.get_int("steps", steps_default))


def _density_from(cfg: ScenarioConfig) -> SpectralDensity:
    j0 = cfg.get_float("j0", required=True)
    j1 = cfg.get_float("j1", 0.0)
    if j1 == 0.0:
        return SpectralDensity.constant(j0)
    gamma = cfg.get_float("gamma")
    if gamma is None:
        raise ConfigError("gamma is required when j1 > 0", key="gamma")
    return SpectralDensity.lorentzian(j0, j1, cfg.get_float("e0", 0.0), gamma,
                                      cfg.get_float("omega_cut", math.inf))


class _SeedPool:
    """Deterministic source for the pieces a config leaves unspecified."""

    def __init__(self, cfg: ScenarioConfig):
        self._seed = cfg.get_int("seed")
        self._rng = None

    def rng(self, key: str) -> np.random.Generator:
        if self._rng is None:
            if self._seed is None:
                raise ConfigError("a seed is required when this key is omitted", key=key)
            self._rng = np.random.default_rng(self._seed)
        return self._rng


def _spec_from(cfg: ScenarioConfig, *, entangled: bool = False,
               amplitude_key: str = "c") -> tuple:
    d_s = cfg.get_int("dS", required=True)
    d_e = cfg.get_int("dE", 1)
    CompositeSpec.check_dimensions(d_s, d_e)    # before any random matrix is drawn
    pool = _SeedPool(cfg)
    # generation order is fixed: hS, hE, hSE, amplitudes, dmat
    hams = []
    for key, dim in (("hS", d_s), ("hE", d_e), ("hSE", d_s * d_e)):
        mat = cfg.get_matrix(key)
        hams.append(random_hermitian(dim, pool.rng(key)) if mat is None else mat)
    h_s, h_e, h_se = hams

    with _keyed(c=amplitude_key):
        if entangled:
            a = cfg.get_matrix("a")
            if a is None:
                a = random_amplitudes(d_s * d_e, pool.rng("a")).reshape(d_s, d_e)
            initial = InitialState.entangled(a)
        else:
            smat = cfg.get_matrix("smat")
            c = cfg.get_vector(amplitude_key) if smat is None else None
            if smat is None and c is None:
                c = random_amplitudes(d_s, pool.rng(amplitude_key))
            d_mat = cfg.get_matrix("dmat")
            if d_mat is None:
                d_mat = (np.eye(1, dtype=complex) if d_e == 1
                         else random_env_weights(d_e, pool.rng("dmat")))
            initial = (InitialState.mixed_product(smat, d_mat) if smat is not None
                       else InitialState.product(c, d_mat))
        return CompositeSpec(d_s=d_s, d_e=d_e, h_s=h_s, h_e=h_e, h_se=h_se,
                             initial=initial,
                             coupling_strength=cfg.get_float("coupling_strength", 1.0)), pool


def _span_from(cfg: ScenarioConfig, count_key: str, count_default: int) -> tuple:
    """How many random times to draw (``count_key``) and the ``t_max`` they lie below."""
    n = cfg.get_int(count_key, count_default)
    if n < 1:
        raise ConfigError(f"need {count_key} >= 1", key=count_key)
    t_max = cfg.get_float("t_max", 2.0)
    if not t_max > 0:
        raise ConfigError("need t_max > 0", key="t_max")
    return n, t_max


def _triples_from(cfg: ScenarioConfig, pool: _SeedPool) -> list:
    times = cfg.get_vector("times", real=True)
    if times is not None:
        if times.size != 3:
            raise ConfigError("need a [t0, ts, t] triple", key="times")
        return [tuple(times)]
    n, t_max = _span_from(cfg, "n_triples", 5)
    rng = pool.rng("times")
    triples = []
    for _ in range(n):
        ts, t = np.sort(rng.uniform(0.05 * t_max, t_max, size=2))
        triples.append((0.0, float(ts), float(t)))
    return triples


# --------------------------------------------------------------- runners


def _run_green(cfg: ScenarioConfig, strict: bool) -> ScenarioResult:
    es = cfg.get_vector("es", required=True, real=True)
    density = _density_from(cfg)
    grid = _grid_from(cfg, 10.0, 1000)
    sol = solve_green(GreenProblem(es=es, density=density, grid=grid), strict=strict)
    times = grid.times()
    columns = ["t"]
    for k in range(es.size):
        columns += [f"re_g1_{k}", f"im_g1_{k}", f"abs_g1_{k}",
                    f"re_g2_{k}", f"im_g2_{k}"]
    g1 = np.diagonal(sol.g1, axis1=1, axis2=2)
    g2 = np.diagonal(sol.g2, axis1=1, axis2=2)
    # np.hypot is the scalar abs(complex) to the last bit; np.abs is not
    per_level = np.stack([g1.real, g1.imag, np.hypot(g1.real, g1.imag),
                          g2.real, g2.imag], axis=2)
    rows = np.column_stack([times, per_level.reshape(times.size, -1)])
    checks = [
        CheckRow("g1_initial_defect", float(np.abs(sol.g1[0] - np.eye(es.size)).max()), 0.0),
        CheckRow("g2_initial_defect", float(np.abs(sol.g2[0]).max()), 0.0),
    ]
    info = [f"levels: {es.size}", f"density: {density.kind}", f"h: {grid.h!r}"]
    if density.kind == "constant":
        with np.errstate(divide="ignore"):    # |g1| = 0 (a coarse step) reads as inf
            resid = np.abs(np.log(abs(g1[1:])) + density.j0 * (times[1:, None] - times[0])).max()
        scale = float(np.abs(es).max() + density.j0)
        try:
            default = grid.h**2 * scale**3 * (grid.t1 - grid.t0)
        except OverflowError:    # name the larger of the step and the energy scale
            key = "t1" if grid.h > scale else "es" if np.abs(es).max() >= density.j0 else "j0"
            raise ConfigError(f"decay bound h^2 scale^3 T overflows: h = {grid.h:.3e}, "
                              f"scale = {scale:.3e}", key=key) from None
        checks.append(CheckRow("decay_residual", float(resid),
                               cfg.tolerance("decay_residual", default)))
    return ScenarioResult(columns, rows, checks, info)


def _run_green_analytic(cfg: ScenarioConfig, strict: bool) -> ScenarioResult:
    es = cfg.get_vector("es", required=True, real=True)
    j0 = cfg.get_float("j0", required=True)
    j1 = cfg.get_float("j1", required=True)
    e0 = cfg.get_float("e0", required=True)
    gamma = cfg.get_float("gamma", required=True)
    grid = _grid_from(cfg, 10.0, 1000)
    problem = GreenProblem(es=es, density=SpectralDensity.lorentzian(j0, j1, e0, gamma),
                           grid=grid)
    num = solve_green(problem, strict=strict)
    ana = analytic_green1_lorentzian(es, j0, j1, e0, gamma, grid)
    columns = ["t"]
    for k in range(es.size):
        columns += [f"abs_num_{k}", f"abs_ana_{k}", f"dev_{k}"]
    times = grid.times()
    num1 = np.diagonal(num.g1, axis1=1, axis2=2)
    ana1 = np.diagonal(ana.g1, axis1=1, axis2=2)
    per_level = np.stack([np.hypot(z.real, z.imag) for z in (num1, ana1, num1 - ana1)],
                         axis=2)
    rows = np.column_stack([times, per_level.reshape(times.size, -1)])
    dev = float(np.abs(num.g1 - ana.g1).max())
    checks = [CheckRow("max_abs_dev", dev, cfg.tolerance("max_abs_dev", 1e-3))]
    return ScenarioResult(columns, rows, checks, [f"h: {grid.h!r}"])


def _run_amp_phase(cfg: ScenarioConfig, strict: bool) -> ScenarioResult:
    es_level = cfg.get_float("es_level", required=True)
    j0 = cfg.get_float("j0", required=True)
    e0 = cfg.get_float("e0", required=True)
    gamma = cfg.get_float("gamma", required=True)
    j1_values = cfg.get_vector("j1_values", required=True, real=True)
    with _keyed(j1="j1_values", es="es_level"):
        aps = crossover_sweep(es_level, j0, e0, gamma, j1_values)
    columns = ["j1", "abs_a1", "abs_a2", "re_phi1_rate", "im_phi1_rate",
               "re_phi2_rate", "im_phi2_rate", "decays"]
    # |a1|, |a2|, |a1 + a2 - 1|: np.hypot is abs(complex) to the last bit, and
    # gives inf where abs raises OverflowError
    amps = np.array([[ap.a1, ap.a2, ap.a1 + ap.a2 - 1.0] for ap in aps])
    mags = np.hypot(amps.real, amps.imag)
    rows = [[j1, *mag[:2], ap.phi1_rate.real, ap.phi1_rate.imag,
             ap.phi2_rate.real, ap.phi2_rate.imag, ap.decays]
            for j1, mag, ap in zip(j1_values, mags, aps)]
    checks = [CheckRow("amp_sum_defect", mags[:, 2].max(),
                       cfg.tolerance("amp_sum_defect", 1e-15))]
    # aps[0] stands for every j1 here: the branch side and the scale do not move
    if np.any(j1_values == 0.0):
        k = int(np.argmax(j1_values == 0.0))
        want1, want2 = (1.0, 0.0) if aps[0].upper_branch else (0.0, 1.0)
        endpoint = max(abs(mags[k, 0] - want1), abs(mags[k, 1] - want2))
        checks.append(CheckRow("endpoint_defect", endpoint,
                               cfg.tolerance("endpoint_defect", 0.0)))
    scale = max(abs(aps[0].e_minus), abs(aps[0].v), gamma)
    if j1_values.max() >= 1e5 * scale:
        k = int(np.argmax(j1_values))
        half = max(abs(mags[k, 0] - 0.5), abs(mags[k, 1] - 0.5))
        checks.append(CheckRow("half_defect", half, cfg.tolerance("half_defect", 1e-2)))
    return ScenarioResult(columns, rows, checks, [f"points: {j1_values.size}"])


def _expectation(cfg: ScenarioConfig, d_e: int) -> str:
    expect = cfg.get_str("expect")
    if expect is None:
        return "divisible" if d_e == 1 else "report"
    if expect not in ("divisible", "nondivisible", "report"):
        raise ConfigError("expect must be divisible, nondivisible or report",
                          key="expect")
    return expect


def _defect_checks(cfg: ScenarioConfig, expect: str, defects) -> list:
    if expect == "divisible":
        return [CheckRow("defect_max", max(defects),
                         cfg.tolerance("divisible", 1e-10))]
    if expect == "nondivisible":
        return [CheckRow("defect_min", min(defects),
                         cfg.tolerance("nondivisible", 1e-4), mode=">=")]
    return [CheckRow("defect_max", max(defects), math.inf)]


def _run_divisibility(cfg: ScenarioConfig, strict: bool,
                      entangled: bool = False) -> ScenarioResult:
    """Defects over time triples; ``entangled`` starts from joint amplitudes."""
    spec, pool = _spec_from(cfg, entangled=entangled)
    triples = _triples_from(cfg, pool)
    defect = entangled_divisibility if entangled else divisibility_defect
    with _keyed(ts="times"):
        rows = [[t0, ts, t, defect(spec, t0, ts, t)] for (t0, ts, t) in triples]
    defects = [r[3] for r in rows]
    expect = _expectation(cfg, spec.d_e)
    info = [f"dS: {spec.d_s}", f"dE: {spec.d_e}", f"expect: {expect}"]
    if entangled:
        info.append(f"env_purity_defect: {spec.initial.env_purity_defect():.6e}")
    else:
        info.insert(2, f"coupling_strength: {spec.coupling_strength!r}")
    return ScenarioResult(["t0", "ts", "t", "defect"], rows,
                          _defect_checks(cfg, expect, defects), info)


def _run_master_check(cfg: ScenarioConfig, strict: bool) -> ScenarioResult:
    if cfg.get_int("dE", 1) != 1:
        raise ConfigError("the master-equation check needs a one-state environment "
                          "(dE = 1)", key="dE")
    spec, pool = _spec_from(cfg)
    times = cfg.get_vector("times", real=True)
    if times is None:
        n, t_max = _span_from(cfg, "n_times", 10)
        times = np.sort(pool.rng("times").uniform(0.0, t_max, size=n))
    elif times.size == 0:
        raise ConfigError("need at least one time", key="times")
    residual, drift = commutator_residuals(spec, times)
    rows = np.column_stack([times, residual, drift])
    checks = [
        CheckRow("residual_max", float(residual.max()), cfg.tolerance("residual", 1e-10)),
        CheckRow("eig_drift_max", float(drift.max()), cfg.tolerance("eig_drift", 1e-9)),
    ]
    return ScenarioResult(["t", "residual", "eig_drift"], rows, checks,
                          [f"dS: {spec.d_s}"])


def _run_entropy(cfg: ScenarioConfig, strict: bool) -> ScenarioResult:
    spec, _ = _spec_from(cfg)
    grid = _grid_from(cfg, 5.0, 200)
    report = entropy_sie_check(spec, grid)
    rows = [[t, s] for t, s in zip(grid.times(), report.entropy)]
    info = [f"delta: {report.delta}", f"h_norm: {report.h_norm!r}",
            f"max_rate: {report.max_rate!r}", f"bound_ratio: {report.bound_ratio!r}"]
    if report.delta == 1:
        checks = [CheckRow("entropy_span", report.entropy_span,
                           cfg.tolerance("entropy_span", 1e-9))]
    else:
        checks = [CheckRow("bound_ratio", report.bound_ratio,
                           cfg.tolerance("bound_ratio", 2.0))]
    return ScenarioResult(["t", "entropy"], rows, checks, info)


def _run_stationarity(cfg: ScenarioConfig, strict: bool) -> ScenarioResult:
    spec, _ = _spec_from(cfg)
    grid = _grid_from(cfg, 5.0, 200)
    diag = environment_stationarity(spec, grid)
    rows = np.column_stack([grid.times(), diag.distance])
    info = [f"delta_e: {diag.delta_e!r}", f"tau_c: {diag.tau_c!r}",
            f"tau_s: {diag.tau_s!r}",
            f"env_purity_defect: {spec.initial.env_purity_defect():.6e}"]
    checks = [CheckRow("stationarity_defect", diag.stationarity_defect,
                       cfg.tolerance("stationarity_defect", math.inf))]
    return ScenarioResult(["t", "distance"], rows, checks, info)


def _run_witness(cfg: ScenarioConfig, strict: bool) -> ScenarioResult:
    spec, _ = _spec_from(cfg, amplitude_key="cA")
    c_a, c_b = cfg.get_vector("cA"), cfg.get_vector("cB")
    grid = _grid_from(cfg, 5.0, 200)
    # cA already built the spec, so only cB can be at fault
    with _keyed(c="cB"):
        result = distinguishability_witness(c_a, c_b, spec, grid)
    rows = [[t, d, r] for t, d, r in zip(result.times, result.distance, result.rate)]
    default = 1e-8 if spec.d_e == 1 else math.inf
    checks = [CheckRow("max_rate", result.max_rate,
                       cfg.tolerance("backflow", default))]
    return ScenarioResult(["t", "distance", "rate"], rows, checks,
                          [f"dS: {spec.d_s}", f"dE: {spec.d_e}"])


_RUNNERS = {
    "green": _run_green,
    "green-analytic": _run_green_analytic,
    "amp-phase": _run_amp_phase,
    "divisibility": _run_divisibility,
    "entangled": lambda cfg, strict: _run_divisibility(cfg, strict, entangled=True),
    "master-check": _run_master_check,
    "entropy": _run_entropy,
    "stationarity": _run_stationarity,
    "witness": _run_witness,
}


# ------------------------------------------------------------------ sweep


def _run_sweep(cfg: ScenarioConfig, strict: bool) -> ScenarioResult:
    """Run the base scenario once per swept value and merge the tables.

    An integral value is passed as an int, so integer keys such as
    ``steps`` can be swept; a value outside its domain fails in its own
    run.  The CSV column holds float(value) either way.
    """
    base, key = cfg.get_str("base"), cfg.get_str("sweep_key")
    values = cfg.get_vector("sweep_values", real=True)
    base_values = {k: v for k, v in cfg.values.items()
                   if k not in ("base", "sweep_key", "sweep_values", "out")}
    combined = ScenarioResult([key], [], info=[f"runs: {values.size}"])
    for v in values:
        child = ScenarioConfig(scenario=base, tolerance_overrides=dict(cfg.tolerance_overrides),
                               values={**base_values,
                                       key: int(v) if float(v).is_integer() else float(v)})
        result = _RUNNERS[base](child, strict)
        combined.columns[1:] = result.columns
        combined.rows.extend([float(v), *row] for row in result.rows)
        combined.checks.extend(
            CheckRow(f"{key}={float(v):.17g}:{c.name}", c.measured, c.bound, c.mode)
            for c in result.checks)
        combined.info.extend(f"{key}={float(v):.17g}: {line}" for line in result.info)
    return combined


# ------------------------------------------------------------- top level


def run_scenario(cfg: ScenarioConfig, out_dir: str = ".", strict: bool = False) -> int:
    """Execute a scenario; write CSV and summary; return the exit status."""
    runner = _RUNNERS.get(cfg.scenario, _run_sweep if cfg.scenario == "sweep" else None)
    if runner is None:
        raise ConfigError(f"unknown scenario {cfg.scenario!r}")
    with _keyed():
        result = runner(cfg, strict)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, cfg.output_path)
    _write_csv(csv_path, result.columns, result.rows)
    summary = _summary_text(cfg.scenario, cfg.output_path, result)
    base, _ = os.path.splitext(csv_path)
    _replace_file(base + ".summary.txt", [summary.encode("utf-8")])
    print(summary, end="")
    return 0 if result.passed else 1
