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
    divisibility_defects,
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
    _lorentzian_levels,
    _solve_levels,
    amplitude_phase,
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
    rows: np.ndarray            # 2-d float table, one row per CSV line
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
                "s_weights": "smat", "d_mat": "dmat", "dt": "t1"}


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
    v = cfg.values
    return TimeGrid(v.get("t0", 0.0), v.get("t1", t1_default), v.get("steps", steps_default))


def _density_from(cfg: ScenarioConfig) -> SpectralDensity:
    v = cfg.values
    j1 = v.get("j1", 0.0)
    if j1 == 0.0:
        return SpectralDensity.constant(v["j0"])
    if "gamma" not in v:
        raise ConfigError("gamma is required when j1 > 0", key="gamma")
    return SpectralDensity.lorentzian(v["j0"], j1, v.get("e0", 0.0), v["gamma"],
                                      v.get("omega_cut", math.inf))


class _SeedPool:
    """Deterministic source for the pieces a config leaves unspecified."""

    def __init__(self, cfg: ScenarioConfig):
        self._seed = cfg.values.get("seed")
        self._rng = None

    def rng(self, key: str) -> np.random.Generator:
        if self._rng is None:
            if self._seed is None:
                raise ConfigError("a seed is required when this key is omitted", key=key)
            self._rng = np.random.default_rng(self._seed)
        return self._rng


def _spec_from(cfg: ScenarioConfig, *, entangled: bool = False,
               amplitude_key: str = "c") -> tuple:
    v = cfg.values
    d_s, d_e = v["dS"], v.get("dE", 1)
    CompositeSpec.check_dimensions(d_s, d_e)    # before any random matrix is drawn
    pool = _SeedPool(cfg)
    # generation order is fixed: hS, hE, hSE, amplitudes, dmat
    hams = []
    for key, dim in (("hS", d_s), ("hE", d_e), ("hSE", d_s * d_e)):
        mat = v.get(key)
        hams.append(random_hermitian(dim, pool.rng(key)) if mat is None else mat)
    h_s, h_e, h_se = hams

    with _keyed(c=amplitude_key):
        if entangled:
            a = v.get("a")
            if a is None:
                a = random_amplitudes(d_s * d_e, pool.rng("a")).reshape(d_s, d_e)
            initial = InitialState.entangled(a)
        else:
            smat = v.get("smat")
            c = v.get(amplitude_key) if smat is None else None
            if smat is None and c is None:
                c = random_amplitudes(d_s, pool.rng(amplitude_key))
            d_mat = v.get("dmat")
            if d_mat is None:
                d_mat = (np.eye(1, dtype=complex) if d_e == 1
                         else random_env_weights(d_e, pool.rng("dmat")))
            initial = (InitialState.mixed_product(smat, d_mat) if smat is not None
                       else InitialState.product(c, d_mat))
        return CompositeSpec(d_s=d_s, d_e=d_e, h_s=h_s, h_e=h_e, h_se=h_se,
                             initial=initial,
                             coupling_strength=v.get("coupling_strength", 1.0)), pool


def _span_from(cfg: ScenarioConfig, count_key: str, count_default: int) -> tuple:
    """How many random times to draw (``count_key``) and the ``t_max`` they lie below."""
    n = cfg.values.get(count_key, count_default)
    if n < 1:
        raise ConfigError(f"need {count_key} >= 1", key=count_key)
    t_max = cfg.values.get("t_max", 2.0)
    if not t_max > 0:
        raise ConfigError("need t_max > 0", key="t_max")
    return n, t_max


def _times_key(cfg: ScenarioConfig) -> str:
    """The key that spans the random or given times of a triples or master-check run."""
    return "times" if "times" in cfg.values else "t_max"


def _triples_from(cfg: ScenarioConfig, pool: _SeedPool) -> list:
    times = cfg.values.get("times")
    if times is not None:
        if times.size != 3:
            raise ConfigError("need a [t0, ts, t] triple", key="times")
        return [tuple(times)]
    n, t_max = _span_from(cfg, "n_triples", 5)
    draws = np.sort(pool.rng("times").uniform(0.05 * t_max, t_max, size=(n, 2)), axis=1)
    return [(0.0, ts, t) for ts, t in draws.tolist()]


# --------------------------------------------------------------- runners


def _run_green(cfg: ScenarioConfig) -> ScenarioResult:
    es = cfg.values["es"]
    density = _density_from(cfg)
    grid = _grid_from(cfg, 10.0, 1000)
    g1, g2, error = _solve_levels(GreenProblem(es=es, density=density, grid=grid),
                                  estimate=True)
    columns = ["t"]
    for k in range(es.size):
        columns += [f"re_g1_{k}", f"im_g1_{k}", f"abs_g1_{k}",
                    f"re_g2_{k}", f"im_g2_{k}"]
    rows = np.empty((grid.steps + 1, len(columns)))
    rows[:, 0] = grid.times()
    per_level = rows[:, 1:].reshape(grid.steps + 1, es.size, 5)
    np.copyto(per_level[:, :, 0], g1.real)
    np.copyto(per_level[:, :, 1], g1.imag)
    # np.hypot is the scalar abs(complex) to the last bit; np.abs is not
    np.hypot(g1.real, g1.imag, out=per_level[:, :, 2])
    np.copyto(per_level[:, :, 3], g2.real)
    np.copyto(per_level[:, :, 4], g2.imag)
    checks = [CheckRow("march_error", error, cfg.tolerance("march_error", 1e-3))]
    info = [f"levels: {es.size}", f"density: {density.kind}", f"h: {grid.h!r}"]
    return ScenarioResult(columns, rows, checks, info)


def _run_green_analytic(cfg: ScenarioConfig) -> ScenarioResult:
    es, j0, j1, e0, gamma = (cfg.values[k] for k in ("es", "j0", "j1", "e0", "gamma"))
    grid = _grid_from(cfg, 10.0, 1000)
    problem = GreenProblem(es=es, density=SpectralDensity.lorentzian(j0, j1, e0, gamma),
                           grid=grid)
    num1, _, _ = _solve_levels(problem)
    ana1 = _lorentzian_levels(es, j0, j1, e0, gamma, grid)
    columns = ["t"]
    for k in range(es.size):
        columns += [f"abs_num_{k}", f"abs_ana_{k}", f"dev_{k}"]
    rows = np.empty((grid.steps + 1, len(columns)))
    rows[:, 0] = grid.times()
    per_level = rows[:, 1:].reshape(grid.steps + 1, es.size, 3)
    diff = num1 - ana1
    for k, z in enumerate((num1, ana1, diff)):
        np.hypot(z.real, z.imag, out=per_level[:, :, k])
    checks = [CheckRow("max_abs_dev", float(np.abs(diff).max()),
                       cfg.tolerance("max_abs_dev", 1e-3))]
    return ScenarioResult(columns, rows, checks, [f"h: {grid.h!r}"])


def _run_amp_phase(cfg: ScenarioConfig) -> ScenarioResult:
    es_level, j0, e0, gamma, j1_values = (
        cfg.values[k] for k in ("es_level", "j0", "e0", "gamma", "j1_values"))
    with _keyed(j1="j1_values", es="es_level"):
        ap = amplitude_phase(es_level, j0, j1_values, e0, gamma)
    columns = ["j1", "abs_a1", "abs_a2", "re_phi1_rate", "im_phi1_rate",
               "re_phi2_rate", "im_phi2_rate", "decays"]
    # np.hypot is the scalar abs(complex) to the last bit; np.abs is not
    amps = np.stack([ap.a1, ap.a2], axis=1)
    mags = np.hypot(amps.real, amps.imag)
    # complex128 (k, 2) viewed as float64 is (k, 4): re, im of phi1, then of phi2
    rates = np.stack([ap.phi1_rate, ap.phi2_rate], axis=1)
    rows = np.column_stack([j1_values, mags, rates.view(np.float64), ap.decays])
    # a2 = 1 - a1 and the j1 = 0 amplitudes are exact by construction: the one
    # check that can fail is the equal two-branch limit at large j1
    checks = []
    if j1_values.max() >= 1e5 * max(abs(ap.e_minus), abs(ap.v), gamma):
        k = int(np.argmax(j1_values))
        half = max(abs(mags[k, 0] - 0.5), abs(mags[k, 1] - 0.5))
        checks.append(CheckRow("half_defect", half, cfg.tolerance("half_defect", 1e-2)))
    return ScenarioResult(columns, rows, checks, [f"points: {j1_values.size}"])


def _defect_checks(cfg: ScenarioConfig, expect: str, defects) -> list:
    if expect == "divisible":
        return [CheckRow("defect_max", max(defects),
                         cfg.tolerance("divisible", 1e-10))]
    if expect == "nondivisible":
        return [CheckRow("defect_min", min(defects),
                         cfg.tolerance("nondivisible", 1e-4), mode=">=")]
    return [CheckRow("defect_max", max(defects), math.inf)]


def _run_divisibility(cfg: ScenarioConfig, entangled: bool = False) -> ScenarioResult:
    """Defects over time triples; ``entangled`` starts from joint amplitudes."""
    spec, pool = _spec_from(cfg, entangled=entangled)
    triples = _triples_from(cfg, pool)
    with _keyed(ts="times", dt=_times_key(cfg)):
        defects = divisibility_defects(spec, triples).tolist()
    expect = cfg.values.get("expect", "divisible" if spec.d_e == 1 else "report")
    info = [f"dS: {spec.d_s}", f"dE: {spec.d_e}", f"expect: {expect}"]
    if entangled:
        info.append(f"env_purity_defect: {spec.initial.env_purity_defect():.6e}")
    else:
        info.insert(2, f"coupling_strength: {spec.coupling_strength!r}")
    return ScenarioResult(["t0", "ts", "t", "defect"], np.column_stack([triples, defects]),
                          _defect_checks(cfg, expect, defects), info)


def _run_master_check(cfg: ScenarioConfig) -> ScenarioResult:
    if cfg.values.get("dE", 1) != 1:
        raise ConfigError("the master-equation check needs a one-state environment "
                          "(dE = 1)", key="dE")
    spec, pool = _spec_from(cfg)
    times = cfg.values.get("times")
    if times is None:
        n, t_max = _span_from(cfg, "n_times", 10)
        times = np.sort(pool.rng("times").uniform(0.0, t_max, size=n))
    with _keyed(dt=_times_key(cfg)):
        residual, drift = commutator_residuals(spec, times)
    rows = np.column_stack([times, residual, drift])
    checks = [
        CheckRow("residual_max", float(residual.max()), cfg.tolerance("residual", 1e-10)),
        CheckRow("eig_drift_max", float(drift.max()), cfg.tolerance("eig_drift", 1e-9)),
    ]
    return ScenarioResult(["t", "residual", "eig_drift"], rows, checks,
                          [f"dS: {spec.d_s}"])


def _run_entropy(cfg: ScenarioConfig) -> ScenarioResult:
    spec, _ = _spec_from(cfg)
    grid = _grid_from(cfg, 5.0, 200)
    report = entropy_sie_check(spec, grid)
    rows = np.column_stack([grid.times(), report.entropy])
    info = [f"delta: {report.delta}", f"h_norm: {report.h_norm!r}",
            f"max_rate: {report.max_rate!r}", f"bound_ratio: {report.bound_ratio!r}"]
    if report.delta == 1:
        checks = [CheckRow("entropy_span", report.entropy_span,
                           cfg.tolerance("entropy_span", 1e-9))]
    else:
        checks = [CheckRow("bound_ratio", report.bound_ratio,
                           cfg.tolerance("bound_ratio", 2.0))]
    return ScenarioResult(["t", "entropy"], rows, checks, info)


def _run_stationarity(cfg: ScenarioConfig) -> ScenarioResult:
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


def _run_witness(cfg: ScenarioConfig) -> ScenarioResult:
    spec, _ = _spec_from(cfg, amplitude_key="cA")
    c_a, c_b = cfg.values["cA"], cfg.values["cB"]
    grid = _grid_from(cfg, 5.0, 200)
    # cA already built the spec, so only cB can be at fault
    with _keyed(c="cB"):
        result = distinguishability_witness(c_a, c_b, spec, grid)
    rows = np.column_stack([result.times, result.distance, result.rate])
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
    "entangled": lambda cfg: _run_divisibility(cfg, entangled=True),
    "master-check": _run_master_check,
    "entropy": _run_entropy,
    "stationarity": _run_stationarity,
    "witness": _run_witness,
}


# ------------------------------------------------------------------ sweep


def _run_sweep(cfg: ScenarioConfig) -> ScenarioResult:
    """Run the base scenario once per swept value and merge the tables.

    The parser checked each value as the swept key's kind (an int for
    ``steps``); a value outside its domain fails in its own run.  The CSV
    column holds float(value).
    """
    base, key, values = (cfg.values[k] for k in ("base", "sweep_key", "sweep_values"))
    combined = ScenarioResult([key], [], info=[f"runs: {len(values)}"])
    tables = []
    for v in values:
        child = ScenarioConfig(scenario=base, values={**cfg.values, key: v},
                               tolerance_overrides=cfg.tolerance_overrides)
        result = _RUNNERS[base](child)
        combined.columns[1:] = result.columns
        tables.append(np.column_stack([np.full(len(result.rows), float(v)), result.rows]))
        combined.checks.extend(
            CheckRow(f"{key}={float(v):.17g}:{c.name}", c.measured, c.bound, c.mode)
            for c in result.checks)
        combined.info.extend(f"{key}={float(v):.17g}: {line}" for line in result.info)
    combined.rows = np.concatenate(tables)
    return combined


# ------------------------------------------------------------- top level


def run_scenario(cfg: ScenarioConfig, out_dir: str = ".") -> int:
    """Execute a scenario; write CSV and summary; return the exit status."""
    runner = _RUNNERS.get(cfg.scenario, _run_sweep if cfg.scenario == "sweep" else None)
    if runner is None:
        raise ConfigError(f"unknown scenario {cfg.scenario!r}")
    with _keyed():
        result = runner(cfg)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, cfg.output_path)
    _write_csv(csv_path, result.columns, result.rows)
    summary = _summary_text(cfg.scenario, cfg.output_path, result)
    base, _ = os.path.splitext(csv_path)
    _replace_file(base + ".summary.txt", [summary.encode("utf-8")])
    print(summary, end="")
    return 0 if result.passed else 1
