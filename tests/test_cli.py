import contextlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import markovlab
from markovlab import scenarios
from markovlab.cli import main
from markovlab.config import ConfigError, parse_config
from markovlab.scenarios import run_scenario
from markovlab.spectral import (
    GreenProblem,
    SpectralDensity,
    StepSizeWarning,
    TimeGrid,
    solve_green,
)


def run_cli(tmp_path, text, out="out", extra=()):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(text)
    return main(["--config", str(cfg_path), "--out", str(tmp_path / out), *extra])


DIV_UNIQUE = """
scenario = divisibility
dS = 3
dE = 1
seed = 7
coupling_strength = 10
n_triples = 5
out = div.csv
"""


def test_divisibility_unique_env_passes(tmp_path):
    assert run_cli(tmp_path, DIV_UNIQUE) == 0
    csv = (tmp_path / "out" / "div.csv").read_text().splitlines()
    assert csv[0] == "t0,ts,t,defect"
    defects = [float(line.split(",")[3]) for line in csv[1:]]
    assert len(defects) == 5
    assert max(defects) < 1e-10
    summary = (tmp_path / "out" / "div.summary.txt").read_text()
    assert "result: PASS" in summary
    assert "defect_max" in summary


def test_divisibility_expectation_failure_exits_one(tmp_path):
    text = """
scenario = divisibility
dS = 2
dE = 3
seed = 9
expect = divisible
n_triples = 3
out = bad.csv
"""
    assert run_cli(tmp_path, text) == 1
    assert "result: FAIL" in (tmp_path / "out" / "bad.summary.txt").read_text()


def test_divisibility_nondivisible_expectation(tmp_path):
    text = """
scenario = divisibility
dS = 2
dE = 3
seed = 9
expect = nondivisible
n_triples = 3
out = nd.csv
"""
    assert run_cli(tmp_path, text) == 0


def test_cli_determinism(tmp_path):
    assert run_cli(tmp_path, DIV_UNIQUE, out="a") == 0
    assert run_cli(tmp_path, DIV_UNIQUE, out="b") == 0
    assert (tmp_path / "a" / "div.csv").read_bytes() == (tmp_path / "b" / "div.csv").read_bytes()


def _files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_rerun_replaces_outputs_with_identical_bytes(tmp_path):
    assert run_cli(tmp_path, DIV_UNIQUE) == 0
    first = _files(tmp_path / "out")
    assert run_cli(tmp_path, DIV_UNIQUE) == 0
    assert _files(tmp_path / "out") == first     # same names: no temp file left


def test_failed_write_keeps_previous_outputs(tmp_path, monkeypatch, capsys):
    assert run_cli(tmp_path, DIV_UNIQUE) == 0
    before = _files(tmp_path / "out")
    csv_blocks = scenarios.csv_blocks

    def failing_blocks(table):
        yield next(csv_blocks(table))
        raise OSError("disk full")

    monkeypatch.setattr(scenarios, "csv_blocks", failing_blocks)
    assert run_cli(tmp_path, DIV_UNIQUE, extra=("--seed", "21")) == 1
    assert "i/o error: disk full" in capsys.readouterr().err
    assert _files(tmp_path / "out") == before


def test_cli_seed_flag_overrides(tmp_path):
    assert run_cli(tmp_path, DIV_UNIQUE, out="a", extra=("--seed", "21")) == 0
    assert run_cli(tmp_path, DIV_UNIQUE, out="b") == 0
    assert (tmp_path / "a" / "div.csv").read_bytes() != (tmp_path / "b" / "div.csv").read_bytes()


def test_cli_parse_error_exit_two(tmp_path):
    assert run_cli(tmp_path, "scenario = divisibility\ndS = 2\ndE = 1\nwhat = 1\n") == 2


def test_cli_missing_config_exit_two(tmp_path):
    assert main(["--config", str(tmp_path / "nope.cfg")]) == 2


def test_green_scenario_csv_columns(tmp_path):
    text = """
scenario = green
es = [1.0]
j0 = 0.2
t1 = 5.0
steps = 500
out = green.csv
"""
    assert run_cli(tmp_path, text) == 0
    header = (tmp_path / "out" / "green.csv").read_text().splitlines()[0]
    assert header == "t,re_g1_0,im_g1_0,abs_g1_0,re_g2_0,im_g2_0"


@pytest.mark.parametrize("keys, density", [
    ("", SpectralDensity.constant(0.1)),
    ("j1 = 0.8\ne0 = 0.3\ngamma = 0.5\n", SpectralDensity.lorentzian(0.1, 0.8, 0.3, 0.5)),
    ("j1 = 0.8\ne0 = 0.3\ngamma = 0.5\nomega_cut = 2\n",
     SpectralDensity.lorentzian(0.1, 0.8, 0.3, 0.5, omega_cut=2.0)),
], ids=["constant", "lorentzian", "finite-cut"])
def test_green_csv_holds_the_diagonals_of_solve_green(tmp_path, keys, density):
    # the CLI writes the level arrays that solve_green embeds as diagonals
    text = f"scenario = green\nes = [0.5, -0.2]\nj0 = 0.1\n{keys}t1 = 5\nsteps = 300\nout = g.csv\n"
    assert run_cli(tmp_path, text) == 0
    table = np.loadtxt(tmp_path / "out" / "g.csv", delimiter=",", skiprows=1)
    cols = table[:, 1:].reshape(301, 2, 5)
    sol = solve_green(GreenProblem(es=np.array([0.5, -0.2]), density=density,
                                   grid=TimeGrid(0.0, 5.0, 300)))
    g1 = np.diagonal(sol.g1, axis1=1, axis2=2)
    g2 = np.diagonal(sol.g2, axis1=1, axis2=2)
    for k, column in ((0, g1.real), (1, g1.imag), (3, g2.real), (4, g2.imag)):
        assert np.array_equal(cols[:, :, k], column)


def test_green_run_traces_at_most_three_tables(tmp_path):
    # the march, the table and the CSV writer reuse their buffers, so the
    # traced peak of a whole run stays within three float64 tables
    cfg = parse_config("scenario = green\nes = [-0.4, 0.1, 0.7]\nj0 = 0.2\nj1 = 1.2\n"
                       "e0 = 0.1\ngamma = 0.6\nt1 = 40\nsteps = 8000\n")
    table_bytes = 8001 * (1 + 5 * 3) * 8
    with contextlib.redirect_stdout(io.StringIO()):
        tracemalloc.start()
        try:
            assert run_scenario(cfg, str(tmp_path)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 3 * table_bytes


def test_flat_green_with_vanishing_g1_exits_one_without_runtime_warning(tmp_path):
    # at e = 0, h j0 / 2 = 1 puts the Cayley pole at zero: g1 vanishes after one step
    text = "scenario = green\nes = [0.0]\nj0 = 4\nt1 = 1\nsteps = 2\nout = z.csv\n"
    with pytest.warns(StepSizeWarning):
        assert run_cli(tmp_path, text) == 1
    summary = (tmp_path / "out" / "z.summary.txt").read_text()
    assert "decay_residual     measured inf" in summary


def test_green_analytic_scenario(tmp_path):
    text = """
scenario = green-analytic
es = [1.0]
j0 = 0.1
j1 = 1.0
e0 = 1.0
gamma = 0.2
t1 = 5.0
steps = 2000
out = ga.csv
"""
    assert run_cli(tmp_path, text) == 0


def test_amp_phase_scenario_endpoints(tmp_path):
    text = """
scenario = amp-phase
es_level = 1.5
j0 = 0.1
e0 = 1.0
gamma = 0.2
j1_values = [0.0, 0.1, 1.0, 100.0, 1000000.0]
out = amp.csv
"""
    assert run_cli(tmp_path, text) == 0
    rows = (tmp_path / "out" / "amp.csv").read_text().splitlines()
    first = rows[1].split(",")
    last = rows[-1].split(",")
    assert float(first[1]) == 1.0 and float(first[2]) == 0.0
    assert abs(float(last[1]) - 0.5) < 1e-2


def test_amp_phase_level_below_resonance(tmp_path):
    # below e0 the j1 = 0 endpoint lies on the other branch: (|a1|, |a2|) = (0, 1)
    text = """
scenario = amp-phase
es_level = 0.2
j0 = 0.1
e0 = 0.8
gamma = 0.2
j1_values = [0.0, 0.1, 1.0, 100.0, 1000000.0]
out = amp.csv
"""
    assert run_cli(tmp_path, text) == 0
    first = (tmp_path / "out" / "amp.csv").read_text().splitlines()[1].split(",")
    assert float(first[1]) == 0.0 and float(first[2]) == 1.0


@pytest.mark.parametrize("j0, j1", [("0.1", "0.08"), ("0", "0.125")])
def test_amp_phase_double_root_exits_two(tmp_path, capsys, j0, j1):
    # e = e0 and j1 = (j0 - gamma)^2 / (4 gamma): the two branches merge, and
    # |a1|, |a2| would diverge next to the root and be NaN at it
    text = f"""
scenario = amp-phase
es_level = 1.0
j0 = {j0}
e0 = 1.0
gamma = 0.5
j1_values = [0.0, {j1}]
out = amp.csv
"""
    assert run_cli(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert "degenerate characteristic roots" in err
    assert f"critical j1 = {j1}" in err
    assert not (tmp_path / "out" / "amp.csv").exists()


def test_master_check_scenario(tmp_path):
    text = """
scenario = master-check
dS = 3
seed = 4
coupling_strength = 2.0
n_times = 6
out = mc.csv
"""
    assert run_cli(tmp_path, text) == 0


def test_master_check_rejects_larger_env(tmp_path):
    text = "scenario = master-check\ndS = 2\ndE = 2\nseed = 1\n"
    assert run_cli(tmp_path, text) == 2


def test_entropy_scenario_flat_for_unique_env(tmp_path):
    text = """
scenario = entropy
dS = 2
dE = 1
seed = 12
coupling_strength = 3.0
steps = 100
out = ent.csv
"""
    assert run_cli(tmp_path, text) == 0
    summary = (tmp_path / "out" / "ent.summary.txt").read_text()
    assert "entropy_span" in summary


def test_stationarity_scenario(tmp_path):
    text = """
scenario = stationarity
dS = 2
dE = 3
seed = 5
coupling_strength = 3.0
steps = 100
out = st.csv
"""
    assert run_cli(tmp_path, text) == 0
    summary = (tmp_path / "out" / "st.summary.txt").read_text()
    assert "tau_c" in summary and "tau_s" in summary


def test_witness_scenario_unique_env(tmp_path):
    text = """
scenario = witness
dS = 2
dE = 1
seed = 6
cA = [1.0, 0.0]
cB = [0.0, 1.0]
steps = 100
out = wit.csv
"""
    assert run_cli(tmp_path, text) == 0


def test_entangled_scenario(tmp_path):
    text = """
scenario = entangled
dS = 2
dE = 2
seed = 8
expect = nondivisible
n_triples = 3
out = ent.csv
"""
    assert run_cli(tmp_path, text) == 0


def test_sweep_coupling_strength(tmp_path):
    text = """
scenario = sweep
base = divisibility
sweep_key = coupling_strength
sweep_values = [0.1, 1.0, 10.0]
dS = 2
dE = 1
seed = 3
n_triples = 3
out = sweep.csv
"""
    assert run_cli(tmp_path, text) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("coupling_strength,")
    assert len(lines) == 1 + 3 * 3
    defects = [float(line.split(",")[-1]) for line in lines[1:]]
    assert max(defects) < 1e-10


@pytest.mark.parametrize("base, key, extra", [
    ("divisibility", "coupling_strength", "dS = 2\ndE = 1\nseed = 3"),
    ("green", "j0", "es = [1.0]\nj0 = 0.2"),
], ids=["divisibility", "green"])
def test_empty_sweep_exits_two(tmp_path, capsys, base, key, extra):
    text = f"""
scenario = sweep
base = {base}
sweep_key = {key}
sweep_values = []
{extra}
out = sweep.csv
"""
    assert run_cli(tmp_path, text) == 2
    assert "key 'sweep_values'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_sweep_integer_key(tmp_path):
    text = """
scenario = sweep
base = entropy
sweep_key = steps
sweep_values = [20, 40]
dS = 2
dE = 1
seed = 12
out = ssteps.csv
"""
    assert run_cli(tmp_path, text) == 0
    lines = (tmp_path / "out" / "ssteps.csv").read_text().splitlines()
    assert lines[0] == "steps,t,entropy"
    assert [line.split(",")[0] for line in lines[1:]] == ["20"] * 21 + ["40"] * 41
    assert "steps=40:entropy_span" in (tmp_path / "out" / "ssteps.summary.txt").read_text()


def test_sweep_child_grid_checked(tmp_path, capsys):
    text = """
scenario = sweep
base = divisibility
sweep_key = t_max
sweep_values = [1.0, -1.0]
dS = 2
dE = 1
seed = 3
n_triples = 2
"""
    assert run_cli(tmp_path, text) == 2
    assert "key 't_max'" in capsys.readouterr().err


def test_sweep_gamma_approaches_flat_background(tmp_path):
    # as the resonance width closes the propagator returns to the pure
    # flat-background exponential
    text = """
scenario = sweep
base = green-analytic
sweep_key = gamma
sweep_values = [0.2, 0.02, 0.002]
es = [1.0]
j0 = 0.1
j1 = 0.5
e0 = 1.0
t1 = 5.0
steps = 2000
out = gsweep.csv
"""
    assert run_cli(tmp_path, text) == 0
    import csv as csv_mod
    with open(tmp_path / "out" / "gsweep.csv") as fh:
        rows = list(csv_mod.DictReader(fh))
    flat = {}
    for row in rows:
        g = float(row["gamma"])
        t = float(row["t"])
        dev = abs(float(row["abs_ana_0"]) - np.exp(-0.1 * t))
        flat[g] = max(flat.get(g, 0.0), dev)
    gammas = sorted(flat, reverse=True)
    assert flat[gammas[-1]] < flat[gammas[0]]
    assert flat[gammas[-1]] < 0.02


def test_run_scenario_unknown(tmp_path):
    from markovlab.config import ScenarioConfig
    with pytest.raises(ConfigError):
        run_scenario(ScenarioConfig(scenario="nope"), out_dir=str(tmp_path))


def test_cli_strict_step_guard_exits_one(tmp_path):
    text = """
scenario = green
es = [50.0]
j0 = 0.2
t1 = 10.0
steps = 100
out = g.csv
"""
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_cli(tmp_path, text, out="loose") == 0
    assert run_cli(tmp_path, text, out="strict", extra=("--strict",)) == 1


def test_cli_scenario_override_flag(tmp_path):
    text = """
scenario = stationarity
dS = 2
dE = 2
seed = 5
steps = 50
"""
    assert run_cli(tmp_path, text, extra=("--scenario", "entropy")) == 0
    assert (tmp_path / "out" / "entropy.csv").exists()


def test_cli_bad_amplitudes_exit_two(tmp_path):
    text = """
scenario = witness
dS = 2
dE = 1
seed = 2
cA = [1.0, 1.0]
cB = [0.0, 1.0]
steps = 50
"""
    assert run_cli(tmp_path, text) == 2


@pytest.mark.parametrize("scenario, key, value", [
    ("divisibility", "n_triples", "0"),
    ("divisibility", "n_triples", "-3"),
    ("entangled", "n_triples", "0"),
    ("divisibility", "t_max", "-1.0"),
    ("divisibility", "t_max", "0.0"),
    ("master-check", "n_times", "0"),
    ("master-check", "t_max", "-1.0"),
])
def test_count_and_span_keys_exit_two_naming_the_key(tmp_path, capsys, scenario, key, value):
    text = f"scenario = {scenario}\ndS = 2\ndE = 1\nseed = 3\n{key} = {value}\n"
    assert run_cli(tmp_path, text) == 2
    assert f"key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("d_s, d_e, seed", [(2, 2, 5), (3, 1, 4)])
def test_stationarity_csv_max_is_the_summary_defect(tmp_path, d_s, d_e, seed):
    text = f"""
scenario = stationarity
dS = {d_s}
dE = {d_e}
seed = {seed}
coupling_strength = 3.0
steps = 100
out = st.csv
"""
    assert run_cli(tmp_path, text) == 0
    csv = (tmp_path / "out" / "st.csv").read_text().splitlines()[1:]
    csv_max = max(float(line.split(",")[1]) for line in csv)
    summary = (tmp_path / "out" / "st.summary.txt").read_text()
    line = next(ln for ln in summary.splitlines() if ln.startswith("stationarity_defect"))
    assert line.split()[2] == f"{csv_max:.6e}"


@pytest.mark.parametrize("text, key", [
    ("scenario = green\nes = [0.5]\nj0 = nan\n", "j0"),
    ("scenario = green\nes = [0.5]\nj0 = 0.1\nt1 = inf\n", "t1"),
    ("scenario = divisibility\ndS = 2\ndE = 2\nseed = 3\ncoupling_strength = nan\n",
     "coupling_strength"),
    ("scenario = master-check\ndS = 2\nseed = 3\ntimes = [0.5, nan, 1.0]\n", "times"),
], ids=["j0-nan", "t1-inf", "coupling_strength-nan", "times-nan"])
def test_non_finite_value_exits_two_naming_the_key(tmp_path, capsys, text, key):
    assert run_cli(tmp_path, text) == 2
    assert f"key {key!r}" in capsys.readouterr().err


BEYOND_FLOAT = "1" + "0" * 400


@pytest.mark.parametrize("text, line, key", [
    (f"scenario = green\nes = [{BEYOND_FLOAT}]\nj0 = 0.1\n", 2, "es"),
    (f"scenario = green\nes = [0.5]\nj0 = 0.1\nsteps = {BEYOND_FLOAT}\n", 4, "steps"),
], ids=["vector", "steps"])
def test_integer_beyond_float_range_exits_two(tmp_path, capsys, text, line, key):
    assert run_cli(tmp_path, text) == 2
    assert f"line {line}: key {key!r}" in capsys.readouterr().err


GREEN_RESONANCE = "scenario = green\nes = [0.5]\nj0 = 0.1\nj1 = 0.2\ne0 = 0.3\n"
ANALYTIC = "scenario = green-analytic\nes = [1.0]\nj0 = 0.1\nj1 = 0.8\ne0 = 1.0\n"
AMP_PHASE = "scenario = amp-phase\nes_level = 1.0\nj0 = 0.1\ne0 = 1.0\n"
#: (e - e0)^2 leaves the float range: e0 is at fault, not j1
HUGE_E0 = "e0 = 6.97e201\nj0 = 0.001\ngamma = 0.13\n"


@pytest.mark.parametrize("text, expected", [
    ("scenario = divisibility\ndS = 2\ndE = 1\nsweep_key = [1, 2]\n", "key 'sweep_key'"),
    ("scenario = sweep\nbase = divisibility\ndS = 2\ndE = 1\nseed = 1\n"
     "sweep_key = [1, 2]\nsweep_values = [1, 2]\n", "key 'sweep_key'"),
    (DIV_UNIQUE.replace("out = div.csv", "out = 5"), "key 'out'"),
    ("scenario = divisibility\ndS = -2\ndE = 1\nseed = 1\n", "key 'dS'"),
    ("scenario = entropy\ndS = 2\ndE = 0\nseed = 1\n", "key 'dE'"),
    ("scenario = master-check\ndS = 2\nseed = 1\ntimes = []\n", "line 4: key 'times'"),
    ("scenario = divisibility\ndS = 2\ndE = 1\nseed = 1\nhS = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n",
     "key 'hS'"),
    ("scenario = divisibility\ndS = 2\ndE = 2\nseed = 1\nhE = [[1]]\n", "key 'hE'"),
    ("scenario = stationarity\ndS = 2\ndE = 1\nseed = 1\nhSE = [[1]]\n", "key 'hSE'"),
    ("scenario = divisibility\ndS = 2\ndE = 1\nseed = 1\nc = [1, 0, 0]\n", "key 'c'"),
    ("scenario = witness\ndS = 2\ndE = 1\nseed = 6\ncA = [1, 0, 0]\ncB = [0, 1]\n", "key 'cA'"),
    ("scenario = witness\ndS = 2\ndE = 1\nseed = 6\ncA = [1, 0]\ncB = [0, 1, 0]\n", "key 'cB'"),
    ("scenario = entangled\ndS = 2\ndE = 2\nseed = 1\na = [[1, 0, 0]]\n", "key 'a'"),
    ("scenario = divisibility\ndS = 2\ndE = 2\nseed = 1\ndmat = [[1]]\n", "key 'dmat'"),
    ("scenario = entropy\ndS = 2\ndE = 1\nseed = 1\nsmat = [[1]]\n", "key 'smat'"),
    ("scenario = divisibility\ndS = 9\ndE = 9\nseed = 1\n", "key 'dS'"),
    ("scenario = master-check\ndS = 65\nseed = 1\n", "key 'dS'"),
    ("scenario = witness\ndS = 2\ndE = 1\nseed = 6\ncA = [1.0, 1.0]\ncB = [0, 1]\n", "key 'cA'"),
    ("scenario = witness\ndS = 2\ndE = 1\nseed = 6\ncA = [1, 0]\ncB = [1.0, 1.0]\n", "key 'cB'"),
    ("scenario = divisibility\ndS = 2\ndE = 1\nseed = 1\nc = [1.0, 1.0]\n", "key 'c'"),
    ("scenario = entangled\ndS = 2\ndE = 2\nseed = 1\na = [[1, 0], [0, 1]]\n", "key 'a'"),
    ("scenario = divisibility\ndS = 2\ndE = 2\nseed = 1\ndmat = [[1, 0], [0, 1]]\n",
     "key 'dmat'"),
    ("scenario = stationarity\ndS = 2\ndE = 2\nseed = 1\ndmat = [[1.5, 0], [0, -0.5]]\n",
     "key 'dmat'"),
    ("scenario = entropy\ndS = 2\ndE = 1\nseed = 1\nsmat = [[1, 0], [0, 1]]\n", "key 'smat'"),
    (GREEN_RESONANCE + "gamma = 0\n", "key 'gamma'"),
    (GREEN_RESONANCE + "gamma = 0.5\nomega_cut = 0\n", "key 'omega_cut'"),
    ("scenario = green\nes = [0.5]\nj0 = -0.1\n", "key 'j0'"),
    ("scenario = green\nes = []\nj0 = 0.1\n", "line 2: key 'es'"),
    ("scenario = green\nes = [0.5]\nj0 = 0.1\nt0 = 20\n", "key 't1'"),
    (ANALYTIC + "gamma = 0\n", "key 'gamma'"),
    (ANALYTIC.replace("j0 = 0.1", "j0 = -0.1") + "gamma = 0.5\n", "key 'j0'"),
    (ANALYTIC.replace("es = [1.0]", "es = []") + "gamma = 0.5\n", "line 2: key 'es'"),
    (ANALYTIC.replace("j1 = 0.8", "j1 = 0.16") + "gamma = 0.5\n", "key 'j1'"),
    (AMP_PHASE + "gamma = 0\nj1_values = [0, 1]\n", "key 'gamma'"),
    (AMP_PHASE + "gamma = 0.5\nj1_values = [-1]\n", "key 'j1_values'"),
    (AMP_PHASE + "gamma = 0.5\nj1_values = [0, 0.08]\n", "key 'j1_values'"),
    (AMP_PHASE.replace("j0 = 0.1", "j0 = -0.1") + "gamma = 0.5\nj1_values = [0, 1]\n",
     "key 'j0'"),
    ("scenario = green\nes = [0.5]\nj0 = 0.1\nsteps = 1\n", "key 'steps'"),
    ("scenario = sweep\nbase = green\nsweep_key = steps\nsweep_values = [100, 1]\n"
     "es = [0.5]\nj0 = 0.1\n", "key 'steps'"),
    ("scenario = divisibility\ndS = 2\ndE = 1\nseed = 1\nn_triples = 0\n", "key 'n_triples'"),
    ("scenario = master-check\ndS = 2\nseed = 1\nn_times = 0\n", "key 'n_times'"),
    ("scenario = divisibility\ndS = 2\ndE = 1\nseed = 1\nt_max = 0\n", "key 't_max'"),
    ("scenario = master-check\ndS = 2\nseed = 1\nt_max = 0\n", "key 't_max'"),
    ("scenario = divisibility\ndS = 2\ndE = 1\nseed = 1\ntimes = [0, 1, 0.5]\n", "key 'times'"),
    pytest.param("scenario = green\nes = [1.5e182]\nj0 = 0.0012\nj1 = 5.1e258\ne0 = 2.7\n"
                 "gamma = 0.0245\nomega_cut = 1.2e-62\nt1 = 5\nsteps = 200\n", "key 'j1'",
                 marks=pytest.mark.filterwarnings("ignore::markovlab.spectral.StepSizeWarning")),
    ("scenario = green-analytic\nes = [0.2097]\nj1 = 1.1e-205\n" + HUGE_E0, "key 'e0'"),
    ("scenario = amp-phase\nes_level = 0.2097\nj1_values = [1.1e-205]\n" + HUGE_E0, "key 'e0'"),
    ("scenario = amp-phase\nes_level = 0\nj0 = 0\ne0 = 0\ngamma = 1e155\nj1_values = [1e153]\n",
     "key 'gamma'"),
    ("scenario = amp-phase\nj0 = 0\ne0 = -4.3e-70\ngamma = 1.61e159\nes_level = 0\n"
     "j1_values = [0, 1e299, 0, -1]\n", "key 'j1_values'"),
    ("scenario = divisibility\ndS = 2.5\ndE = 1\nseed = 1\n", "line 2: key 'dS'"),
    ("scenario = green\nes = [0.5]\nj0 = 0.1\nsteps = 100.0\n", "line 4: key 'steps'"),
    ("scenario = green\nes = 1.0\nj0 = 0.1\n", "line 2: key 'es'"),
    ("scenario = green\nes = [0.5]\nj0 = [0.1]\n", "line 3: key 'j0'"),
    ("scenario = amp-phase\nes_level = 1.5\nj0 = 0.1\ne0 = 1.0\ngamma = 0.2\n"
     "j1_values = []\n", "line 6: key 'j1_values'"),
    ("scenario = divisibility\ndS = 2\ndE = 1\nseed = 1\ncoupling_strength = 1+2i\n",
     "line 5: key 'coupling_strength'"),
    ("scenario = divisibility\ndS = 2\ndE = 1\nseed = 1\ntimes = [[0, 1, 2]]\n",
     "line 5: key 'times'"),
    ("scenario = witness\ndS = 2\ndE = 1\nseed = 6\ncA = [[1, 0]]\ncB = [0, 1]\n",
     "line 5: key 'cA'"),
    ("scenario = entangled\ndS = 2\ndE = 2\nseed = 1\na = [1, 0, 0, 0]\n", "line 5: key 'a'"),
    ("scenario = divisibility\ndS = 2\ndE = 1\nseed = 1\nexpect = maybe\n",
     "line 5: key 'expect'"),
    ("scenario = sweep\nbase = divisibility\nsweep_key = coupling_strength\n"
     "sweep_values = [1, 2]\ndS = 2\nseed = 1\n", "key 'dE'"),
    ("scenario = sweep\nbase = divisibility\nsweep_key = coupling_strength\n"
     "sweep_values = [1, [2]]\ndS = 2\ndE = 1\nseed = 1\n", "line 4: key 'sweep_values'"),
    ("scenario = green\nes = [0.5, ]\nj0 = 0.1\n", "line 2: key 'es': empty value"),
    ("scenario = divisibility\ndS = 2\ndE = 1\nseed = 1\nhS = [[1, 0], [0]]\n",
     "line 5: key 'hS'"),
    ("scenario = green\nes = [0.5\nj0 = 0.1\n", "line 2: key 'es'"),
    ("scenario = green\nes = [0.5]\nj0 = 0.1\nout = ../escaped.csv\n", "line 4: key 'out'"),
    ("scenario = green\nes = [0.5]\nj0 = 0.1\nout = nosuch/x.csv\n", "line 4: key 'out'"),
], ids=["vector-sweep-key", "sweep-vector-sweep-key", "numeric-out", "negative-dS",
        "zero-dE", "empty-times", "hS-shape", "hE-shape", "hSE-shape", "c-length",
        "cA-length", "cB-length", "a-shape", "dmat-shape", "smat-shape",
        "composite-dimension", "master-check-dimension", "cA-norm", "cB-norm", "c-norm",
        "a-norm", "dmat-trace", "dmat-positivity", "smat-trace", "green-gamma",
        "green-omega_cut", "green-j0", "green-es", "green-t0", "analytic-gamma",
        "analytic-j0", "analytic-es", "analytic-double-root", "amp-phase-gamma",
        "amp-phase-j1_values", "amp-phase-double-root", "amp-phase-j0", "green-steps",
        "sweep-steps", "n_triples-zero", "n_times-zero", "divisibility-t_max",
        "master-check-t_max", "times-order", "cut-off-march-overflow", "analytic-huge-e0",
        "amp-phase-huge-e0", "amp-phase-huge-gamma", "amp-phase-huge-j1",
        "fractional-dS", "fractional-steps", "scalar-es", "vector-j0", "empty-j1_values",
        "complex-coupling", "matrix-times", "matrix-cA", "vector-a", "unknown-expect",
        "sweep-missing-dE", "nested-sweep-value", "empty-entry", "ragged-matrix",
        "unclosed-vector", "out-parent-directory", "out-subdirectory"])
def test_bad_input_exits_two_naming_the_key(tmp_path, capsys, text, expected):
    # a value of the wrong kind is a parse error, so its line is named too
    assert run_cli(tmp_path, text) == 2
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("levels, j0, t1, key", [
    ("1e300", "0.1", "1", "es"),
    ("0.5, -1e300", "0.1", "1", "es"),
    ("0.5", "1e300", "1", "j0"),
    ("0", "0", "1e300", "t1"),
])
def test_green_decay_bound_beyond_float_range_exits_two(tmp_path, capsys, levels, j0, t1, key):
    # the flat-background decay bound h^2 scale^3 T cannot be formed
    text = f"scenario = green\nes = [{levels}]\nj0 = {j0}\nt1 = {t1}\nsteps = 20\n"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        assert run_cli(tmp_path, text) == 2
    assert f"key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "green.csv").exists()


@pytest.mark.parametrize("scenario, j1, gamma, key", [
    ("green", "0.2", "1e160", "gamma"),
    ("green-analytic", "1e300", "0.5", "j1"),
])
def test_resonance_beyond_float_range_exits_two(tmp_path, capsys, scenario, j1, gamma, key):
    # the recursive march's filter coefficients leave the float range
    text = (f"scenario = {scenario}\nes = [0.5]\nj0 = 0.1\nj1 = {j1}\ne0 = 0.3\n"
            f"gamma = {gamma}\nt1 = 5\nsteps = 200\nout = res.csv\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        assert run_cli(tmp_path, text) == 2
    assert f"key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "res.csv").exists()


def test_stationarity_huge_coupling_exits_zero_with_finite_output(tmp_path):
    # tau_s = 1 / (V^2 tau_c) rounds to 0 once V^2 leaves the float range
    text = ("scenario = stationarity\ndS = 2\ndE = 2\nseed = 1\n"
            "coupling_strength = 1e300\nsteps = 50\nout = st.csv\n")
    assert run_cli(tmp_path, text) == 0
    table = np.loadtxt(tmp_path / "out" / "st.csv", delimiter=",", skiprows=1)
    assert table.shape == (51, 2) and np.isfinite(table).all()
    assert "tau_s: 0.0\n" in (tmp_path / "out" / "st.summary.txt").read_text()


def test_entropy_bound_ratio_is_a_plain_float(tmp_path):
    text = "scenario = entropy\ndS = 2\ndE = 2\nseed = 12\nsteps = 50\nout = ent.csv\n"
    assert run_cli(tmp_path, text) == 0
    summary = (tmp_path / "out" / "ent.summary.txt").read_text().splitlines()
    line = next(ln for ln in summary if ln.startswith("bound_ratio: "))
    assert float(line.split(": ")[1]) > 0


DYNAMICS_RUNS = {
    "divisibility": DIV_UNIQUE,
    "entangled": "scenario = entangled\ndS = 2\ndE = 2\nseed = 8\nexpect = nondivisible\n"
                 "n_triples = 3\n",
    "master-check": "scenario = master-check\ndS = 3\nseed = 4\nn_times = 6\n",
    "entropy": "scenario = entropy\ndS = 2\ndE = 2\nseed = 12\nsteps = 50\n",
    "stationarity": "scenario = stationarity\ndS = 2\ndE = 3\nseed = 5\nsteps = 50\n",
    "witness": "scenario = witness\ndS = 2\ndE = 1\nseed = 6\ncA = [1.0, 0.0]\n"
               "cB = [0.0, 1.0]\nsteps = 50\n",
    "sweep": "scenario = sweep\nbase = divisibility\nsweep_key = coupling_strength\n"
             "sweep_values = [0.1, 1.0]\ndS = 2\ndE = 1\nseed = 3\nn_triples = 3\n",
}

GREEN_LEVELS = "es = [-0.4, 0.6]\nj0 = 0.1\nt1 = 4\nsteps = 200\n"
GREEN_RUNS = {
    "lorentzian": "scenario = green\n" + GREEN_LEVELS + "j1 = 0.8\ne0 = 0.2\ngamma = 0.5\n",
    "flat": "scenario = green\n" + GREEN_LEVELS,
    "cut": "scenario = green\n" + GREEN_LEVELS + "j1 = 0.8\ne0 = 0.2\ngamma = 0.5\n"
           "omega_cut = 2\n",
    "analytic": "scenario = green-analytic\n" + GREEN_LEVELS
                + "j1 = 0.8\ne0 = 0.2\ngamma = 0.5\n",
    "amp-phase": "scenario = amp-phase\nes_level = 0.9\nj0 = 0.1\ne0 = 0.2\ngamma = 0.5\n"
                 "j1_values = [0, 0.1, 1, 10]\n",
}

# argv: output directory, config paths; the last stderr line lists the exit
# statuses and the loaded scipy modules
NO_SCIPY_SCRIPT = """
import sys
import markovlab, markovlab.cli
statuses = [markovlab.cli.main(["--config", path, "--out", sys.argv[1]])
            for path in sys.argv[2:]]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(statuses, loaded, file=sys.stderr)
"""


def _run_fresh(tmp_path, runs, prelude=""):
    """Run configs in a fresh interpreter; the last stderr line: statuses, loaded modules."""
    paths = []
    for name, text in runs.items():
        paths.append(tmp_path / f"{name}.cfg")
        paths[-1].write_text(text)
    src = os.path.dirname(os.path.dirname(markovlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", prelude + NO_SCIPY_SCRIPT,
                           str(tmp_path / "out"), *map(str, paths)],
                          env=env, capture_output=True, text=True, check=True)
    return proc.stderr.splitlines()[-1], len(paths)


def test_dynamics_scenarios_never_load_scipy(tmp_path):
    line, n_runs = _run_fresh(tmp_path, DYNAMICS_RUNS)
    assert line == f"{[0] * n_runs} []"


TABULATED_SOLVE = """
import numpy as np
import markovlab as ml
omega = np.linspace(-4.0, 4.0, 40)
density = ml.SpectralDensity.tabulated(omega, 0.5 * np.exp(-omega ** 2))
ml.solve_green(ml.GreenProblem(es=np.array([-0.3, 0.5]), density=density,
                               grid=ml.TimeGrid(0.0, 4.0, 100)), strict=True)
"""


def test_green_scenarios_never_load_scipy_signal(tmp_path):
    # the Green solver, the finite cut-off included, loads no scipy module at all
    line, n_runs = _run_fresh(tmp_path, GREEN_RUNS, prelude=TABULATED_SOLVE)
    assert line == f"{[0] * n_runs} []"


@settings(max_examples=120, deadline=None)
@given(es=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3),
       j0=st.floats(0.0, 3.0), j1=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
       e0=st.floats(-5.0, 5.0), gamma=st.floats(0.01, 5.0),
       omega_cut=st.one_of(st.just(math.inf), st.floats(0.01, 20.0)),
       t1=st.floats(0.01, 30.0), steps=st.integers(2, 400),
       strict=st.booleans())
def test_green_configs_exit_cleanly_with_finite_output(tmp_path_factory, es, j0, j1, e0,
                                                       gamma, omega_cut, t1, steps, strict):
    # flat, infinite and finite cut-off configs run both march paths through the CLI
    text = (f"scenario = green\nes = [{', '.join(map(repr, es))}]\nj0 = {j0!r}\n"
            f"j1 = {j1!r}\ne0 = {e0!r}\ngamma = {gamma!r}\nomega_cut = {omega_cut!r}\n"
            f"t1 = {t1!r}\nsteps = {steps}\nout = green.csv\n")
    out = tmp_path_factory.mktemp("green")
    cfg = out / "green.cfg"
    cfg.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        status = main(["--config", str(cfg), "--out", str(out), *(["--strict"] * strict)])
    assert status in (0, 1, 2)
    if status == 0:
        table = np.loadtxt(out / "green.csv", delimiter=",", skiprows=1, ndmin=2)
        assert table.shape == (steps + 1, 1 + 5 * len(es))
        assert np.isfinite(table).all()


def _amplitudes(draw, n):
    """Real amplitudes, normalised or not; the second item says which."""
    values = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        norm = math.sqrt(sum(v * v for v in values))
        values = [v / norm for v in values] if norm > 1e-3 else [1.0] + [0.0] * (n - 1)
    return values, abs(sum(v * v for v in values) - 1.0) <= 1e-12


def _literal(rows):
    return "[" + ", ".join("[" + ", ".join(map(repr, r)) + "]" for r in rows) + "]"


def _size(draw, dim, wrong):
    """dim, or a different positive size when ``wrong``."""
    return dim + (draw(st.sampled_from([-1, 1])) if dim > 1 else 1) if wrong else dim


def _weights_literal(draw, n):
    """Diagonal weights, valid or not, as a matrix literal; the second item says which."""
    weights = draw(st.lists(st.floats(-0.5, 2.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        weights = [abs(w) for w in weights]
        total = sum(weights)
        weights = [w / total for w in weights] if total > 1e-3 else [1.0] + [0.0] * (n - 1)
    ok = min(weights) >= -1e-10 and abs(sum(weights) - 1.0) <= 1e-12
    return _literal([[w if i == j else 0.0 for j in range(n)] for i, w in enumerate(weights)]), ok


_STATE_KEYS = {"witness": ["cA", "dmat"], "divisibility": ["c", "dmat"],
               "entangled": ["a"], "entropy": ["smat", "dmat"]}


@st.composite
def state_configs(draw):
    """A witness, divisibility, entangled or entropy config and the keys at fault.

    Each state and Hamiltonian key is omitted (cA and cB never are), or
    given with a value that is valid or not and a size that is right or
    wrong.  The keys at fault are listed in the order the run checks them:
    the values of the initial state, then its sizes, then the shapes of
    hS, hE and hSE, then cB.
    """
    scenario = draw(st.sampled_from(sorted(_STATE_KEYS)))
    d_s, d_e = draw(st.sampled_from([(a, b) for a in range(1, 5) for b in range(1, 5)
                                     if a * b <= 12]))
    lines = [f"scenario = {scenario}", f"dS = {d_s}", f"dE = {d_e}",
             f"seed = {draw(st.integers(0, 2**32 - 1))}",
             f"coupling_strength = {draw(st.floats(0.0, 5.0))!r}"]
    bad_value, bad_size, bad_shape, bad_cb = [], [], [], []
    for key in _STATE_KEYS[scenario] + ["hS", "hE", "hSE"] + ["cB"] * (scenario == "witness"):
        if key not in ("cA", "cB") and draw(st.booleans()):
            continue
        wrong = draw(st.integers(0, 5)) == 0
        if key in ("dmat", "smat"):
            n = _size(draw, d_e if key == "dmat" else d_s, wrong)
            literal, ok = _weights_literal(draw, n)
        elif key == "a":
            flip = draw(st.booleans())
            rows, cols = _size(draw, d_s, wrong and flip), _size(draw, d_e, wrong and not flip)
            values, ok = _amplitudes(draw, rows * cols)
            literal = _literal([values[i * cols:(i + 1) * cols] for i in range(rows)])
        elif key.startswith("h"):
            n = _size(draw, {"hS": d_s, "hE": d_e, "hSE": d_s * d_e}[key], wrong)
            diag = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
            literal = _literal([[x if i == j else 0.0 for j in range(n)]
                                for i, x in enumerate(diag)])
            ok = True
        else:
            values, ok = _amplitudes(draw, _size(draw, d_s, wrong))
            literal = f"[{', '.join(map(repr, values))}]"
        lines.append(f"{key} = {literal}")
        if key == "cB":
            bad_cb += [key] * (not ok or wrong)
        elif key.startswith("h"):
            bad_shape += [key] * wrong
        else:
            bad_value += [key] * (not ok)
            bad_size += [key] * wrong
    if scenario in ("witness", "entropy"):
        lines += [f"t1 = {draw(st.floats(0.1, 10.0))!r}", f"steps = {draw(st.integers(2, 60))}"]
    else:
        lines += [f"n_triples = {draw(st.integers(1, 3))}",
                  f"t_max = {draw(st.floats(0.1, 5.0))!r}"]
    return "\n".join(lines + ["out = state.csv", ""]), bad_value + bad_size + bad_shape + bad_cb


@settings(max_examples=150, deadline=None)
@given(case=state_configs())
def test_state_configs_exit_cleanly_and_name_the_bad_input(tmp_path_factory, case):
    text, bad = case
    out = tmp_path_factory.mktemp("state")
    cfg = out / "state.cfg"
    cfg.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(["--config", str(cfg), "--out", str(out)])
    assert status in (0, 1, 2)
    if bad:
        assert status == 2
        assert f"key {bad[0]!r}" in err.getvalue()
    if status == 0:
        table = np.loadtxt(out / "state.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.isfinite(table).all()


def _magnitudes():
    """Zero, or a signed value whose magnitude is log-uniform on [1e-300, 1e300]."""
    signed = st.builds(lambda sign, exp: sign * 10.0 ** exp,
                       st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0))
    return st.one_of(st.just(0.0), signed)


def _vector(values):
    return "[" + ", ".join(map(repr, values)) + "]"


@st.composite
def spectral_configs(draw):
    """A green, green-analytic or amp-phase config with extreme magnitudes."""
    scenario = draw(st.sampled_from(["green", "green-analytic", "amp-phase"]))
    value = _magnitudes()
    lines = [f"scenario = {scenario}", f"j0 = {draw(value)!r}", f"e0 = {draw(value)!r}",
             f"gamma = {draw(value)!r}"]
    if scenario == "amp-phase":
        lines += [f"es_level = {draw(value)!r}",
                  f"j1_values = {_vector(draw(st.lists(value, min_size=1, max_size=4)))}"]
    else:
        lines += [f"es = {_vector(draw(st.lists(value, min_size=1, max_size=3)))}",
                  f"j1 = {draw(value)!r}", f"t1 = {draw(st.floats(0.01, 30.0))!r}",
                  f"steps = {draw(st.integers(2, 200))}"]
    if scenario == "green":
        lines.append(f"omega_cut = {draw(st.one_of(st.just(math.inf), value))!r}")
    return "\n".join(lines + ["out = spectral.csv", ""])


@settings(max_examples=150, deadline=None)
@given(text=spectral_configs(), strict=st.booleans())
def test_spectral_configs_at_extreme_magnitudes_exit_cleanly(tmp_path_factory, text, strict):
    # a configuration error names its key, and exit 0 means every cell is finite
    out = tmp_path_factory.mktemp("spectral")
    cfg = out / "spectral.cfg"
    cfg.write_text(text)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore", StepSizeWarning)
        status = main(["--config", str(cfg), "--out", str(out), *(["--strict"] * strict)])
    assert status in (0, 1, 2)
    if status == 2:
        assert "key '" in err.getvalue()
    if status == 0:
        table = np.loadtxt(out / "spectral.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.isfinite(table).all()
