import numpy as np
import pytest

from markovlab.cli import main
from markovlab.config import ConfigError, parse_config
from markovlab.scenarios import run_scenario, sweep_scenario


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


def test_sweep_rejects_non_scalar_key(tmp_path):
    cfg = parse_config("scenario = divisibility\ndS = 2\ndE = 1\nseed = 1\nn_triples = 2\n")
    with pytest.raises(ConfigError, match="hS"):
        sweep_scenario(cfg, "hS", [1.0, 2.0])
    with pytest.raises(ConfigError, match="scalars"):
        sweep_scenario(cfg, "coupling_strength", [np.array([1.0, 2.0])])


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
