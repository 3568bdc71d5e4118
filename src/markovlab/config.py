"""Line-based scenario configuration files: parsing only.

Format: one ``key = value`` assignment per line, ``#`` starts a comment.
Values are integers, reals, complex numbers written as ``re+imi`` (for
example ``1.5-0.2i``), vectors ``[1, 2.5]``, matrices
``[[1+0i, 0+0i],[0+0i, 2+0i]]`` or bare strings.  Parsing checks what
needs the line number: syntax, keys (strictly against the schema of the
named scenario), finiteness, and each value against the kind of its key
in ``_KINDS``: an integer, a real, a vector of reals or of complex
amplitudes (at least one entry), a matrix (Hermitian for Hamiltonians
and weights), a bare name, a file name without a directory (``out``) or
one of a few names.  Values are stored in normal form: reals as
``float``, vectors as float or complex arrays, matrices as complex
arrays.  Numbers must be finite, except that ``inf`` is allowed for
``omega_cut`` (infinite band cut-off) and ``tol_*`` tolerances; ``nan``
is rejected everywhere, and so is an integer literal beyond the float
range.  No input may be given twice: ``times`` replaces ``n_triples``,
``n_times`` and ``t_max``, and ``smat`` replaces ``c``, so a config that
holds both names the replaced key.  A sweep names a scalar key of its
base and at least one value, each checked as that key's kind; the rest
of the sweep, which may not give the swept key itself, is validated
exactly as a config of its base whose swept key holds the first value.
Range rules (t1 > t0, steps >= 2, a nonnegative j0, a normalised state,
...) belong to the domain object that takes the value, and fail when the
scenario runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from markovlab.linalg import require_hermitian

_GRID_KEYS = frozenset({"t0", "t1", "steps"})
_SPEC_KEYS = frozenset({"dS", "dE", "hS", "hE", "hSE", "c", "dmat",
                        "coupling_strength", "seed"})
_TRIPLE_KEYS = frozenset({"times", "n_triples", "t_max"})
#: a key that, when given, replaces the keys listed with it: a config that
#: gives both would have those silently ignored
_REPLACES = {"times": ("n_triples", "n_times", "t_max"), "smat": ("c",)}
#: keys whose value may be infinite, besides the ``tol_*`` tolerances
#: (each swept value is checked against the rule of the swept key)
_INFINITE_OK = frozenset({"omega_cut", "sweep_values"})


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
        tolerances=frozenset({"march_error"})),
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


def _integer(value) -> int:
    if not isinstance(value, int):
        raise ValueError("expected an integer")
    return value


def _real(value) -> float:
    if not isinstance(value, (int, float)):
        raise ValueError("expected a real number")
    return float(value)


def _entries(value) -> list:
    if not isinstance(value, list) or any(isinstance(v, list) for v in value):
        raise ValueError("expected a vector")
    if not value:
        raise ValueError("need at least one value")
    return value


def _reals(value) -> np.ndarray:
    return np.array([_real(v) for v in _entries(value)])


def _amplitudes(value) -> np.ndarray:
    return np.array(_entries(value), dtype=complex)


def _matrix(value) -> np.ndarray:
    if not (isinstance(value, list) and value and all(isinstance(r, list) for r in value)):
        raise ValueError("expected a matrix")
    return np.array(value, dtype=complex)


def _hermitian(value) -> np.ndarray:
    return require_hermitian(_matrix(value), "matrix")


def _name(value) -> str:
    if not isinstance(value, str):
        raise ValueError("expected a bare name")
    return value


def _file_name(value) -> str:
    name = _name(value)
    if name in ("", ".", "..") or any(sep and sep in name for sep in (os.sep, os.altsep)):
        raise ValueError("expected a bare file name, without a directory")
    return name


def _one_of(*names):
    def kind(value) -> str:
        if value not in names:
            raise ValueError(f"expected one of {', '.join(names)}")
        return value
    return kind


#: the kind of each key: a function that returns a parsed value in normal
#: form or raises ValueError saying what it expected.  A ``tol_*``
#: tolerance is a real; a swept value has the kind of the swept key.
_KINDS = {
    **dict.fromkeys(["dS", "dE", "seed", "steps", "n_triples", "n_times"], _integer),
    **dict.fromkeys(["t0", "t1", "t_max", "j0", "j1", "e0", "gamma", "omega_cut",
                     "es_level", "coupling_strength"], _real),
    **dict.fromkeys(["es", "j1_values", "times"], _reals),
    **dict.fromkeys(["c", "cA", "cB"], _amplitudes),
    **dict.fromkeys(["hS", "hE", "hSE", "dmat", "smat"], _hermitian),
    "a": _matrix,
    "out": _file_name,
    "sweep_key": _name,
    "expect": _one_of("divisible", "nondivisible", "report"),
    "base": _one_of(*(name for name in SCHEMAS if name != "sweep")),
    "sweep_values": _entries,
}


def _parse_scalar(token: str):
    token = token.strip()
    if not token:
        raise ValueError("empty value")
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


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced brackets")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_value(text: str):
    """A scalar, a vector (a list of scalars) or a matrix (a list of equal rows)."""
    text = text.strip()
    if text.startswith("[["):
        if not text.endswith("]]"):
            raise ValueError("matrix literal must end with ']]'")
        rows = []
        for row_text in _split_top_level(text[1:-1]):
            row_text = row_text.strip()
            if not (row_text.startswith("[") and row_text.endswith("]")):
                raise ValueError("malformed matrix row")
            row = [_parse_scalar(tok) for tok in _split_top_level(row_text[1:-1])]
            if any(isinstance(v, str) for v in row):
                raise ValueError("matrix entries must be numbers")
            rows.append(row)
        if len({len(r) for r in rows}) != 1:
            raise ValueError("matrix rows have unequal lengths")
        return rows
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError("vector literal must end with ']'")
        inner = text[1:-1].strip()
        if not inner:
            return []
        items = [_parse_scalar(tok) for tok in _split_top_level(inner)]
        if any(isinstance(v, str) for v in items):
            raise ValueError("vector entries must be numbers")
        return items
    return _parse_scalar(text)


@dataclass
class ScenarioConfig:
    """A validated config: each value in the normal form of its key's kind."""

    scenario: str
    values: dict = field(default_factory=dict)
    tolerance_overrides: dict = field(default_factory=dict)

    @property
    def output_path(self) -> str:
        return self.values.get("out", f"{self.scenario}.csv")

    def tolerance(self, name: str, default: float) -> float:
        return self.tolerance_overrides.get(name, default)


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
            value = _parse_value(value_text)
        except OverflowError:
            raise ConfigError("integer beyond the float range", line=lineno, key=key) from None
        except ValueError as exc:
            raise ConfigError(str(exc), line=lineno, key=key) from None
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


def _normal(key: str, value, line: int, name: str | None = None):
    """``value`` checked as the kind of ``key`` and put in its normal form.

    An error names ``line`` and ``name`` (by default ``key``).
    """
    name = name or key
    if not isinstance(value, str):
        numbers = np.asarray(value, dtype=complex)
        if np.isnan(numbers).any():
            raise ConfigError("value is NaN", line=line, key=name)
        if not (np.isfinite(numbers).all() or key in _INFINITE_OK or key.startswith("tol_")):
            raise ConfigError("value must be finite", line=line, key=name)
    try:
        return (_real if key.startswith("tol_") else _KINDS[key])(value)
    except ValueError as exc:
        raise ConfigError(str(exc), line=line, key=name) from None


def _require(schema: _Schema, raw: dict) -> None:
    missing = sorted(schema.required - set(raw))
    if missing:
        raise ConfigError("required key is missing", key=missing[0])


def _validate(scenario: str, raw: dict, lines_of: dict) -> ScenarioConfig:
    if scenario == "sweep":
        return _validate_sweep(raw, lines_of)
    schema = SCHEMAS[scenario]
    values: dict = {}
    tolerances: dict = {}
    for key, value in raw.items():
        line = lines_of[key]
        if key.startswith("tol_"):
            if key[4:] not in schema.tolerances:
                raise ConfigError(f"unknown tolerance for scenario {scenario!r}",
                                  line=line, key=key)
            tolerances[key[4:]] = _normal(key, value, line)
        elif key in schema.all_keys():
            values[key] = _normal(key, value, line)
        else:
            raise ConfigError(f"unknown key for scenario {scenario!r}", line=line, key=key)
    _require(schema, values)
    for key, replaced in _REPLACES.items():
        for ignored in replaced:
            if key in values and ignored in values:
                raise ConfigError(f"ignored when {key!r} is given", line=lines_of[ignored],
                                  key=ignored)
    return ScenarioConfig(scenario=scenario, values=values, tolerance_overrides=tolerances)


def _validate_sweep(raw: dict, lines_of: dict) -> ScenarioConfig:
    """A scalar key of the base and its values; the rest is validated as the base.

    The base sees the swept key holding the first value.
    """
    _require(SCHEMAS["sweep"], raw)
    base = _normal("base", raw["base"], lines_of["base"])
    key = _normal("sweep_key", raw["sweep_key"], lines_of["sweep_key"])
    if key not in SCHEMAS[base].all_keys():
        raise ConfigError(f"not a key of scenario {base!r}", line=lines_of["sweep_key"],
                          key=key)
    if _KINDS[key] not in (_integer, _real):
        raise ConfigError("swept key must hold a scalar",
                          line=lines_of.get(key, lines_of["sweep_key"]), key=key)
    line = lines_of["sweep_values"]
    swept = [_normal(key, v, line, name="sweep_values")
             for v in _normal("sweep_values", raw["sweep_values"], line)]
    body = {k: v for k, v in raw.items() if k not in SCHEMAS["sweep"].required}
    if key in body:
        raise ConfigError("ignored when swept by sweep_values", line=lines_of[key], key=key)
    cfg = _validate(base, {**body, key: swept[0]}, {**lines_of, key: line})
    return ScenarioConfig(scenario="sweep", tolerance_overrides=cfg.tolerance_overrides,
                          values={**cfg.values, "base": base, "sweep_key": key,
                                  "sweep_values": swept})
