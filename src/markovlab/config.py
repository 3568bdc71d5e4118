"""Line-based scenario configuration files: parsing only.

Format: one ``key = value`` assignment per line, ``#`` starts a comment.
Values are integers, reals, complex numbers written as ``re+imi`` (for
example ``1.5-0.2i``), vectors ``[1, 2.5]``, matrices
``[[1+0i, 0+0i],[0+0i, 2+0i]]`` or bare strings.  Parsing checks what
needs the line number: syntax, keys (strictly against the schema of the
named scenario), literal types, finiteness, the Hermiticity of the
matrices that must be Hermitian, and that a sweep names a scalar key of
its base and at least one value.  Numbers must be finite, except that
``inf`` is allowed for ``omega_cut`` (infinite band cut-off) and
``tol_*`` tolerances; ``nan`` is rejected everywhere, and so is an
integer literal beyond the float range.  Range rules (t1 > t0, steps >=
2, a nonnegative j0, a normalised state, ...) belong to the domain
object that takes the value, and fail when the scenario runs.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from markovlab.linalg import HERM_TOL, hermiticity_defect

#: matrix-valued keys that must be Hermitian wherever they appear
HERMITIAN_KEYS = ("hS", "hE", "hSE", "dmat", "smat")

_GRID_KEYS = frozenset({"t0", "t1", "steps"})
_SPEC_KEYS = frozenset({"dS", "dE", "hS", "hE", "hSE", "c", "dmat",
                        "coupling_strength", "seed"})
_TRIPLE_KEYS = frozenset({"times", "n_triples", "t_max"})
#: keys whose value may be infinite, besides the ``tol_*`` tolerances
_INFINITE_OK = frozenset({"omega_cut"})
#: keys whose value is a bare name (``base`` is checked with the sweep)
_NAME_KEYS = frozenset({"out", "expect", "sweep_key"})


@dataclass(frozen=True)
class _Schema:
    required: frozenset
    optional: frozenset
    tolerances: frozenset

    def all_keys(self) -> frozenset:
        return self.required | self.optional


SCHEMAS = {
    "green": _Schema(
        required=frozenset({"es", "j0"}),
        optional=frozenset({"j1", "e0", "gamma", "omega_cut", "out"}) | _GRID_KEYS,
        tolerances=frozenset({"decay_residual"})),
    "green-analytic": _Schema(
        required=frozenset({"es", "j0", "j1", "e0", "gamma"}),
        optional=frozenset({"out"}) | _GRID_KEYS,
        tolerances=frozenset({"max_abs_dev"})),
    "amp-phase": _Schema(
        required=frozenset({"es_level", "j0", "e0", "gamma", "j1_values"}),
        optional=frozenset({"out"}),
        tolerances=frozenset({"amp_sum_defect", "endpoint_defect", "half_defect"})),
    "divisibility": _Schema(
        required=frozenset({"dS", "dE"}),
        optional=(_SPEC_KEYS | _TRIPLE_KEYS | frozenset({"expect", "out"})),
        tolerances=frozenset({"divisible", "nondivisible"})),
    "entangled": _Schema(
        required=frozenset({"dS", "dE"}),
        optional=(frozenset({"a", "hS", "hE", "hSE", "coupling_strength", "seed",
                             "expect", "out"}) | _TRIPLE_KEYS),
        tolerances=frozenset({"divisible", "nondivisible"})),
    "master-check": _Schema(
        required=frozenset({"dS"}),
        optional=(frozenset({"dE", "hS", "hE", "hSE", "c", "coupling_strength",
                             "seed", "times", "n_times", "t_max", "out"})),
        tolerances=frozenset({"residual", "eig_drift"})),
    "entropy": _Schema(
        required=frozenset({"dS", "dE"}),
        optional=(_SPEC_KEYS | _GRID_KEYS | frozenset({"smat", "out"})),
        tolerances=frozenset({"entropy_span", "bound_ratio"})),
    "stationarity": _Schema(
        required=frozenset({"dS", "dE"}),
        optional=(_SPEC_KEYS | _GRID_KEYS | frozenset({"out"})),
        tolerances=frozenset({"stationarity_defect"})),
    "witness": _Schema(
        required=frozenset({"dS", "dE", "cA", "cB"}),
        optional=(_SPEC_KEYS | _GRID_KEYS | frozenset({"out"})) - frozenset({"c"}),
        tolerances=frozenset({"backflow"})),
    "sweep": _Schema(
        required=frozenset({"base", "sweep_key", "sweep_values"}),
        # remaining keys are validated against the base scenario
        optional=frozenset({"out"}),
        tolerances=frozenset()),
}


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if key is not None:
            prefix += f"key {key!r}: "
        super().__init__(prefix + message)
        self.line = line
        self.key = key


def _parse_scalar(token: str, line: int):
    token = token.strip()
    if not token:
        raise ConfigError("empty value", line=line)
    try:
        value = int(token)
    except ValueError:
        pass
    else:
        float(value)              # OverflowError beyond the float range
        return value
    try:
        return float(token)
    except ValueError:
        pass
    if token.endswith("i"):
        try:
            return complex(token[:-1].replace(" ", "") + "j")
        except ValueError:
            pass
    return token


def _split_top_level(text: str, line: int) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ConfigError("unbalanced brackets", line=line)
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_value(text: str, line: int):
    text = text.strip()
    if text.startswith("[["):
        if not text.endswith("]]"):
            raise ConfigError("matrix literal must end with ']]'", line=line)
        rows = []
        for row_text in _split_top_level(text[1:-1], line):
            row_text = row_text.strip()
            if not (row_text.startswith("[") and row_text.endswith("]")):
                raise ConfigError("malformed matrix row", line=line)
            row = [_parse_scalar(tok, line)
                   for tok in _split_top_level(row_text[1:-1], line)]
            if any(isinstance(v, str) for v in row):
                raise ConfigError("matrix entries must be numbers", line=line)
            rows.append(row)
        if len({len(r) for r in rows}) != 1:
            raise ConfigError("matrix rows have unequal lengths", line=line)
        return np.array(rows, dtype=complex)
    if text.startswith("["):
        if not text.endswith("]"):
            raise ConfigError("vector literal must end with ']'", line=line)
        inner = text[1:-1].strip()
        if not inner:
            return np.array([], dtype=float)
        items = [_parse_scalar(tok, line) for tok in _split_top_level(inner, line)]
        if any(isinstance(v, str) for v in items):
            raise ConfigError("vector entries must be numbers", line=line)
        if any(isinstance(v, complex) for v in items):
            return np.array(items, dtype=complex)
        return np.array(items, dtype=float)
    return _parse_scalar(text, line)


@dataclass
class ScenarioConfig:
    scenario: str
    values: dict = field(default_factory=dict)
    tolerance_overrides: dict = field(default_factory=dict)

    @property
    def output_path(self) -> str:
        return self.values.get("out", f"{self.scenario}.csv")

    # ------------------------------------------------------ typed getters

    def _get(self, key: str, kinds, default=None, required=False):
        if key not in self.values:
            if required:
                raise ConfigError("required key is missing", key=key)
            return default
        val = self.values[key]
        if not isinstance(val, kinds):
            raise ConfigError(f"expected {kinds}, got {type(val).__name__}", key=key)
        return val

    def get_int(self, key, default=None, required=False) -> int | None:
        val = self._get(key, int, default, required)
        return val

    def get_float(self, key, default=None, required=False) -> float | None:
        val = self._get(key, (int, float), default, required)
        return None if val is None else float(val)

    def get_str(self, key, default=None, required=False) -> str | None:
        return self._get(key, str, default, required)

    def get_vector(self, key, default=None, required=False, real=False) -> np.ndarray | None:
        val = self._get(key, np.ndarray, default, required)
        if val is None:
            return None
        if val.ndim != 1:
            raise ConfigError("expected a vector", key=key)
        if real:
            if np.iscomplexobj(val) and np.abs(val.imag).max() > 0:
                raise ConfigError("expected real entries", key=key)
            return val.real.astype(float)
        return val.astype(complex)

    def get_matrix(self, key, default=None, required=False) -> np.ndarray | None:
        val = self._get(key, np.ndarray, default, required)
        if val is not None and val.ndim != 2:
            raise ConfigError("expected a matrix", key=key)
        return val

    def tolerance(self, name: str, default: float) -> float:
        return float(self.tolerance_overrides.get(name, default))


def parse_config(text: str, scenario_override: str | None = None) -> ScenarioConfig:
    """Parse a scenario configuration; no range rule is checked here."""
    raw: dict = {}
    lines_of: dict = {}
    scenario = None
    scenario_line = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value_text = body.partition("=")
        key = key.strip()
        if not key or not key.replace("_", "").isalnum():
            raise ConfigError(f"malformed key {key!r}", line=lineno)
        if key in raw or (key == "scenario" and scenario is not None):
            raise ConfigError("duplicate key", line=lineno, key=key)
        try:
            value = _parse_value(value_text, lineno)
        except OverflowError:
            raise ConfigError("integer beyond the float range", line=lineno, key=key) from None
        if key == "scenario":
            if not isinstance(value, str):
                raise ConfigError("scenario must be a name", line=lineno)
            scenario = value
            scenario_line = lineno
            continue
        raw[key] = value
        lines_of[key] = lineno

    if scenario_override is not None:
        scenario = scenario_override
    if scenario is None:
        raise ConfigError("missing 'scenario' key")
    if scenario not in SCHEMAS:
        raise ConfigError(f"unknown scenario {scenario!r}", line=scenario_line)

    return _validate(scenario, raw, lines_of)


def _validate(scenario: str, raw: dict, lines_of: dict) -> ScenarioConfig:
    schema = SCHEMAS[scenario]
    values: dict = {}
    tolerances: dict = {}
    base_schema = None
    if scenario == "sweep":
        base = raw.get("base")
        if not isinstance(base, str) or base not in SCHEMAS or base == "sweep":
            raise ConfigError("sweep needs 'base = <scenario>'", key="base")
        base_schema = SCHEMAS[base]

    infinite_ok = _INFINITE_OK
    sweep_key = raw.get("sweep_key")
    if isinstance(sweep_key, str) and sweep_key in _INFINITE_OK:
        infinite_ok = infinite_ok | {"sweep_values"}
    for key, value in raw.items():
        line = lines_of.get(key)
        finite = (np.isfinite(value).all() if isinstance(value, np.ndarray)
                  else isinstance(value, (int, str)) or cmath.isfinite(value))
        if not finite:
            if np.isnan(value).any():
                raise ConfigError("value is NaN", line=line, key=key)
            if key not in infinite_ok and not key.startswith("tol_"):
                raise ConfigError("value must be finite", line=line, key=key)
        if key.startswith("tol_"):
            name = key[4:]
            known = schema.tolerances | (base_schema.tolerances if base_schema else frozenset())
            if name not in known:
                raise ConfigError(f"unknown tolerance for scenario {scenario!r}",
                                  line=line, key=key)
            if not isinstance(value, (int, float)):
                raise ConfigError("tolerance must be a real number", line=line, key=key)
            tolerances[name] = float(value)
            continue
        allowed = schema.all_keys()
        if base_schema is not None:
            allowed = allowed | base_schema.all_keys()
        if key not in allowed:
            raise ConfigError(f"unknown key for scenario {scenario!r}", line=line, key=key)
        if key in _NAME_KEYS and not isinstance(value, str):
            raise ConfigError("expected a bare name", line=line, key=key)
        if key in HERMITIAN_KEYS:
            if (not isinstance(value, np.ndarray) or value.ndim != 2
                    or value.shape[0] != value.shape[1]):
                raise ConfigError("expected a square matrix literal", line=line, key=key)
            defect = hermiticity_defect(value)
            if defect > HERM_TOL:
                raise ConfigError(f"matrix is not Hermitian (defect {defect:.3e})",
                                  line=line, key=key)
        values[key] = value

    missing = schema.required - set(values)
    if missing:
        raise ConfigError(f"missing required keys: {sorted(missing)}")
    if base_schema is not None:    # the swept key is a scalar parameter of the base
        key = raw["sweep_key"]
        if key not in base_schema.all_keys():
            raise ConfigError(f"not a key of scenario {base!r}", line=lines_of["sweep_key"],
                              key=key)
        if isinstance(raw.get(key), (np.ndarray, str)):
            raise ConfigError("swept key must hold a scalar", line=lines_of[key], key=key)
        if np.size(raw["sweep_values"]) == 0:
            raise ConfigError("need at least one value to sweep",
                              line=lines_of["sweep_values"], key="sweep_values")

    return ScenarioConfig(scenario=scenario, values=values, tolerance_overrides=tolerances)

