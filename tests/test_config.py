import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovlab.cli import main
from markovlab.config import SCHEMAS, ConfigError, parse_config

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
    assert cfg.values["j0"] == 0.2
    assert cfg.values["es"].dtype == float and np.array_equal(cfg.values["es"], [1.0])
    assert cfg.values["steps"] == 1000 and isinstance(cfg.values["t0"], float)
    assert "j1" not in cfg.values
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
    h = cfg.values["hS"]
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


def test_parse_rejects_non_square_hermitian_key():
    with pytest.raises(ConfigError, match="line 4: key 'hS': expected a square matrix"):
        parse_config("scenario = divisibility\ndS = 2\ndE = 1\nhS = [[1, 2]]\n")


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


def test_bad_grid_parses_and_the_run_exits_two_naming_the_key(tmp_path, capsys):
    # t1 > t0 and steps >= 2 are TimeGrid's rules: the run checks them, not the parser
    for grid, key in (("t0 = 2.0\nt1 = 1.0\n", "t1"), ("steps = 1\n", "steps")):
        text = "scenario = green\nes = [1.0]\nj0 = 0.1\n" + grid
        assert parse_config(text).values["j0"] == 0.1
        (tmp_path / "grid.cfg").write_text(text)
        assert main(["--config", str(tmp_path / "grid.cfg"), "--out", str(tmp_path)]) == 2
        assert f"key {key!r}" in capsys.readouterr().err


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
    assert np.isinf(cfg.values["omega_cut"])


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
    assert np.isinf(cfg.values["sweep_values"][1])
    with pytest.raises(ConfigError, match="sweep_values"):
        parse_config("scenario = sweep\nbase = green\nsweep_key = j0\n"
                     "sweep_values = [0.1, inf]\nes = [1.0]\nj0 = 0.2\n")


@pytest.mark.parametrize("lines, line, key, message", [
    (["base = divisibility", "sweep_key = bogus", "sweep_values = [1, 2]"], 3, "bogus",
     "not a key of scenario 'divisibility'"),
    (["base = divisibility", "sweep_key = coupling_strength", "sweep_values = []"], 4,
     "sweep_values", "need at least one value"),
    (["base = divisibility", "hS = [[1, 0], [0, 2]]", "sweep_key = hS", "sweep_values = [1]"],
     3, "hS", "swept key must hold a scalar"),
    (["base = divisibility", "sweep_key = hS", "sweep_values = [1]"], 3, "hS",
     "swept key must hold a scalar"),
    (["base = divisibility", "sweep_key = n_triples", "sweep_values = [2, 2.5]"], 4,
     "sweep_values", "expected an integer"),
    (["base = divisibility", "sweep_key = t_max", "sweep_values = [[1, 2]]"], 4,
     "sweep_values", "expected a vector"),
    (["base = sweep", "sweep_key = t_max", "sweep_values = [1]"], 2, "base",
     "expected one of green, "),
    (["base = divisibility", "sweep_key = t_max", "sweep_values = [1]", "expect = maybe"], 5,
     "expect", "expected one of divisible, nondivisible, report"),
], ids=["unknown-key", "empty-values", "matrix-base-value", "matrix-key", "fractional-int",
        "matrix-values", "sweep-base", "base-kind"])
def test_parse_checks_the_sweep_naming_key_and_line(lines, line, key, message):
    text = "\n".join(["scenario = sweep", *lines, "dS = 2", "dE = 1", "seed = 1", ""])
    with pytest.raises(ConfigError, match=f"line {line}: key {key!r}: {message}"):
        parse_config(text)


# ------------------------------------------- generated configuration text

_KEYS = sorted(
    set().union(*(schema.all_keys() for schema in SCHEMAS.values()))
    | {"base", "sweep_key", "sweep_values", "tol_", "bogus"}
    | {f"tol_{name}" for schema in SCHEMAS.values() for name in schema.tolerances})
_NAMES = st.sampled_from([*SCHEMAS, *_KEYS, "x.csv", "i", "[", "]", "[[", "]]", ","])
_REAL = st.one_of(st.integers(-3, 70).map(str),
                  st.floats().map(repr),
                  st.sampled_from(["1" + "0" * 400, "-1" + "0" * 400, "1e400", "1_0"]))
_COMPLEX = st.tuples(_REAL, _REAL).map(lambda re_im: f"{re_im[0]}+{re_im[1]}i")
_SCALAR = st.one_of(_REAL, _COMPLEX)
_VECTOR = st.lists(_SCALAR, max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]")
_MATRIX = st.lists(st.lists(_SCALAR, max_size=3), min_size=1, max_size=3).map(
    lambda rows: "[" + ",".join("[" + ", ".join(r) + "]" for r in rows) + "]")
#: a valid config of each scenario, which the generated lines edit
_VALID = {
    "green": {"es": "[1.0]", "j0": "0.2"},
    "green-analytic": {"es": "[1.0]", "j0": "0.1", "j1": "0.1", "e0": "0", "gamma": "0.5"},
    "amp-phase": {"es_level": "1", "j0": "0.1", "e0": "0", "gamma": "0.5",
                  "j1_values": "[0.1]"},
    "divisibility": {"dS": "2", "dE": "1"},
    "entangled": {"dS": "2", "dE": "2"},
    "master-check": {"dS": "2"},
    "entropy": {"dS": "2", "dE": "2"},
    "stationarity": {"dS": "2", "dE": "2"},
    "witness": {"dS": "2", "dE": "1", "cA": "[1, 0]", "cB": "[0, 1]"},
    "sweep": {"base": "green", "sweep_key": "j0", "sweep_values": "[0.1]",
              "es": "[1.0]", "j0": "0.2"},
}


def _own_keys(scenario: str) -> list:
    schema = SCHEMAS[scenario]
    if scenario == "sweep":
        schema = SCHEMAS["green"]
        return sorted(schema.all_keys() | {"base", "sweep_key", "sweep_values"})
    return sorted(schema.all_keys() | {f"tol_{name}" for name in schema.tolerances})


@st.composite
def _config_texts(draw):
    """A valid config with some keys dropped and some set to generated values."""
    scenario = draw(st.sampled_from(tuple(SCHEMAS)))
    values = dict(_VALID[scenario])
    for key in draw(st.sets(st.sampled_from(sorted(values)), max_size=2)):
        del values[key]
    keys = st.one_of(st.sampled_from(_own_keys(scenario)), st.sampled_from(_KEYS))
    values.update(draw(st.dictionaries(keys, st.one_of(_SCALAR, _VECTOR, _MATRIX, _NAMES),
                                       max_size=6)))
    return scenario, f"scenario = {scenario}\n" + "".join(
        f"{k} = {v}\n" for k, v in values.items())


@settings(max_examples=400, deadline=None)
@given(_config_texts())
def test_parse_config_raises_only_config_error(scenario_text):
    scenario, text = scenario_text
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert cfg.scenario == scenario
