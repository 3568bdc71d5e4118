import numpy as np
import pytest

from markovlab.config import ConfigError, parse_config

MINIMAL_GREEN = """
# minimal flat-background run
scenario = green
es = [1.0]
j0 = 0.2
t0 = 0.0
t1 = 10.0
steps = 1000
"""


def test_parse_minimal_green_fills_defaults():
    cfg = parse_config(MINIMAL_GREEN)
    assert cfg.scenario == "green"
    assert cfg.get_float("j0") == 0.2
    assert np.array_equal(cfg.get_vector("es", real=True), [1.0])
    assert cfg.get_float("j1", 0.0) == 0.0
    assert cfg.output_path == "green.csv"


def test_parse_matrix_literal():
    cfg = parse_config("""
scenario = divisibility
dS = 2
dE = 1
hS = [[1+0i, 0.5-0.25i],[0.5+0.25i, 2+0i]]
times = [0.0, 0.5, 1.0]
seed = 1
""")
    h = cfg.get_matrix("hS")
    assert h.shape == (2, 2)
    assert h[0, 1] == 0.5 - 0.25j


def test_parse_rejects_non_hermitian_matrix():
    with pytest.raises(ConfigError, match="hS"):
        parse_config("""
scenario = divisibility
dS = 2
dE = 1
hS = [[1+0i, 1+0i],[0+0i, 2+0i]]
""")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(MINIMAL_GREEN + "bogus = 1\n")


def test_parse_rejects_missing_required():
    with pytest.raises(ConfigError, match="es"):
        parse_config("scenario = green\nj0 = 0.1\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(MINIMAL_GREEN + "j0 = 0.3\n")


def test_parse_syntax_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("scenario = green\nes 1.0\n")


def test_parse_unknown_scenario():
    with pytest.raises(ConfigError, match="unknown scenario"):
        parse_config("scenario = nonsense\n")


def test_parse_rejects_bad_grid():
    with pytest.raises(ConfigError, match="t1"):
        parse_config("scenario = green\nes = [1.0]\nj0 = 0.1\nt0 = 2.0\nt1 = 1.0\n")
    with pytest.raises(ConfigError, match="steps"):
        parse_config("scenario = green\nes = [1.0]\nj0 = 0.1\nsteps = 1\n")


def test_tolerance_overrides():
    cfg = parse_config(MINIMAL_GREEN + "tol_decay_residual = 1e-5\n")
    assert cfg.tolerance("decay_residual", 1.0) == 1e-5
    with pytest.raises(ConfigError, match="unknown tolerance"):
        parse_config(MINIMAL_GREEN + "tol_nonsense = 1e-5\n")


def test_scenario_override_revalidates():
    # the same keys are invalid under another scenario's schema
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(MINIMAL_GREEN, scenario_override="divisibility")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("\n# comment only\n" + MINIMAL_GREEN + "\n   \n")
    assert cfg.scenario == "green"


def test_inf_parses_for_cutoff():
    cfg = parse_config(MINIMAL_GREEN + "j1 = 0.5\ngamma = 0.2\nomega_cut = inf\n")
    assert np.isinf(cfg.get_float("omega_cut"))


HEADS = {"green": "scenario = green\nes = [1.0]\nj0 = 0.2\n",
         "divisibility": "scenario = divisibility\ndS = 2\ndE = 1\nseed = 1\n"}


@pytest.mark.parametrize("scenario, line, key", [
    ("green", "j1 = nan", "j1"),
    ("green", "t1 = inf", "t1"),
    ("green", "t0 = -inf", "t0"),
    ("green", "tol_decay_residual = nan", "tol_decay_residual"),
    ("divisibility", "c = [0.6, nan]", "c"),
    ("divisibility", "c = [0.6+0i, 0.8+nani]", "c"),
    ("divisibility", "times = [0.0, inf, 1.0]", "times"),
    ("divisibility", "coupling_strength = -inf", "coupling_strength"),
    ("divisibility", "hS = [[1+0i, nan+0i],[nan+0i, 2+0i]]", "hS"),
])
def test_parse_rejects_non_finite_values_naming_key_and_line(scenario, line, key):
    lineno = HEADS[scenario].count("\n") + 1
    with pytest.raises(ConfigError, match=f"line {lineno}: key {key!r}"):
        parse_config(HEADS[scenario] + line + "\n")


BEYOND_FLOAT = "1" + "0" * 400


@pytest.mark.parametrize("scenario, line, key", [
    ("green", f"steps = {BEYOND_FLOAT}", "steps"),
    ("green", f"t1 = -{BEYOND_FLOAT}", "t1"),
    ("divisibility", f"c = [0.6, {BEYOND_FLOAT}]", "c"),
    ("divisibility", f"hS = [[{BEYOND_FLOAT}, 0],[0, 2]]", "hS"),
], ids=["scalar", "negative", "vector", "matrix"])
def test_parse_rejects_integer_beyond_float_range_naming_key_and_line(scenario, line, key):
    lineno = HEADS[scenario].count("\n") + 1
    with pytest.raises(ConfigError, match=f"line {lineno}: key {key!r}: integer beyond"):
        parse_config(HEADS[scenario] + line + "\n")


def test_inf_allowed_for_cutoff_tolerances_and_swept_cutoff():
    cfg = parse_config(MINIMAL_GREEN + "tol_decay_residual = inf\n")
    assert np.isinf(cfg.tolerance("decay_residual", 1.0))
    cfg = parse_config("scenario = sweep\nbase = green\nsweep_key = omega_cut\n"
                       "sweep_values = [10.0, inf]\nes = [1.0]\nj0 = 0.2\n")
    assert np.isinf(cfg.get_vector("sweep_values", real=True)[1])
    with pytest.raises(ConfigError, match="sweep_values"):
        parse_config("scenario = sweep\nbase = green\nsweep_key = j0\n"
                     "sweep_values = [0.1, inf]\nes = [1.0]\nj0 = 0.2\n")
