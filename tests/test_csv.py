"""The CSV writer against the per-row ``%`` join: its vectorised path, and the
join itself, which writes tables below ``csvtext._SMALL_CELLS`` cells."""

import inspect
import itertools
import math
import struct
import types

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from markovlab import csvtext
from markovlab.scenarios import _write_csv


def reference_rows(rows, n_cols: int) -> bytes:
    """The reference oracle: ``'%.17g'`` per cell, one ``%`` join per row."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    line = ",".join(["%.17g"] * n_cols) + "\n"
    return "".join(line % tuple(row) for row in rows).encode()


def _written(table, module=csvtext) -> bytes:
    return b"".join(module.csv_blocks(table))


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _ulps(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


#: Cells that random bit patterns almost never hit.
SPECIAL_CELLS = st.one_of(
    st.floats(width=64),                                            # zeros, inf, nan, edges
    st.builds(lambda m, e: math.ldexp(m, -e), st.integers(1, 2**20),
              st.integers(14, 27)),                                 # dyadic, often a tie
    st.builds(lambda k, j: _ulps(float(f"1e{k}"), j), st.integers(-323, 308),
              st.integers(-2, 2)),                                  # 10**k within 2 ulp
)


@st.composite
def tables(draw):
    """Random float64 bit patterns, with drawn special cells at random places.

    Half the draws are below the writer's small-table bound and half above it,
    where the vectorised path writes them.
    """
    cols = draw(st.integers(1, 20))
    least = -(-csvtext._SMALL_CELLS // cols)       # fewest rows of a large table
    rows = (st.integers(least, least + 40) if draw(st.booleans())
            else st.integers(0, least - 1))
    shape = (draw(rows), cols)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    special = draw(st.lists(SPECIAL_CELLS, max_size=min(table.size, 24)))
    table.flat[rng.choice(table.size, len(special), replace=False)] = special
    return table


def _property(module, phases=tuple(Phase)):
    @settings(max_examples=300, deadline=None, database=None, derandomize=True,
              phases=phases)
    @given(tables())
    def writer_matches_oracle(table):
        assert _written(table, module) == reference_rows(table, table.shape[1])
    return writer_matches_oracle


test_writer_matches_oracle_on_random_tables = _property(csvtext)


def _hard_cells() -> np.ndarray:
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    near = [_ulps(p, j) for p in powers for j in (-2, -1, 0, 1, 2)]
    ties = [math.ldexp(m, -e) for e in range(14, 28) for m in range(1, 400, 2)]
    ties += [2.0**-e for e in range(1, 1075)]         # 2**-25 is a tie
    subnormal = [5e-324, 1e-320, _ulps(2.2250738585072014e-308, -1), 2.2250738585072014e-308]
    integers = [float(2**p + j) for p in range(53, 64) for j in range(-9, 10)]
    edges = [_ulps(b, j) for b in (1e-270, 1e270, 1e-4, 1e16, 1e17) for j in range(-3, 4)]
    special = [0.0, math.inf, math.nan, 0.5, 0.1, 1.0, 123.25, 1.7976931348623157e308]
    cells = np.array(near + ties + subnormal + integers + edges + special)
    return np.concatenate([cells, -cells])


HARD = _hard_cells()


@pytest.mark.parametrize("n_cols", [1, 3, 7])
def test_hard_inputs_match_oracle(n_cols):
    table = HARD[:HARD.size // n_cols * n_cols].reshape(-1, n_cols)
    assert table.size > csvtext._BLOCK_CELLS         # several blocks
    assert _written(table) == reference_rows(table, n_cols)


def _layout(text: str):
    """(notation class, significant digits) of one ``'%.17g'`` cell: the
    class is the decimal exponent in fixed notation and ``e2``/``e3`` by
    exponent width."""
    mantissa, _, exponent = text.lstrip("-").partition("e")
    digits = mantissa.replace(".", "").lstrip("0").rstrip("0") or "0"
    if exponent:
        return f"e{len(exponent) - 1}", len(digits)
    if mantissa.startswith("0."):
        return -(len(mantissa) - len(mantissa[2:].lstrip("0")) - 1), len(digits)
    return len(mantissa.split(".")[0]) - 1, len(digits)


#: Decimal exponents of each notation class of the fast domain.
LAYOUT_CLASSES = {**{x: [x] for x in range(-4, 17)},
                  "e2": [x for x in range(-99, 100) if not -4 <= x <= 16],
                  "e3": [x for x in range(-270, 271) if abs(x) >= 100]}


def _layout_cells() -> list:
    """One positive double per (class, digit count) layout that a double
    reaches: dyadic literals first, then short decimal literals
    ``<nd digits>e<k>`` searched for the layouts still missing."""
    cells = {}
    for m, e in itertools.product(range(1, 64, 2), range(-40, 60)):
        v = math.ldexp(m, e)
        cells.setdefault(_layout("%.17g" % v), v)
    for (cls, xs), nd in itertools.product(LAYOUT_CLASSES.items(), range(1, 18)):
        for x, t in itertools.product(xs, range(100)):
            if (cls, nd) in cells:
                break
            digits = str(int("1" * nd) + t)
            if len(digits) == nd and digits[-1] != "0":
                v = float(f"{digits}e{x - nd + 1}")
                cells.setdefault(_layout("%.17g" % v), v)
    return list(cells.values())


def _layout_table() -> np.ndarray:
    """Each layout cell with both signs, once inside a row and once at its end."""
    cells = np.array(_layout_cells())
    return np.repeat(np.concatenate([cells, -cells])[:, None], 2, axis=1)


def _layouts_covered(text: bytes) -> int:
    """Distinct (class, digit count, sign, row end) layouts of a CSV text."""
    seen = set()
    for line in text.decode().splitlines():
        cells = line.split(",")
        seen.update((*_layout(c), c.startswith("-"), k == len(cells) - 1)
                    for k, c in enumerate(cells))
    return len(seen)


def test_every_layout_matches_oracle():
    table = _layout_table()
    assert table.size >= csvtext._SMALL_CELLS         # the vectorised path
    expected = reference_rows(table, 2)
    # 21 fixed classes and 2 exponent widths, 17 digit counts, sign, row end
    assert _layouts_covered(expected) == 23 * 17 * 2 * 2
    assert _written(table) == expected


def test_small_tables_write_special_cells_as_the_definition():
    cells = [-0.0, 0.0, math.nan, math.inf, -math.inf, 2.0**-25, -(2.0**-25), 0.5,
             2.5, 1e16 + 2, 5e-324, 1.7976931348623157e308, 0.1, -123.25, 1e-5, 1e17]
    for n_cols in (1, 2, 4, 8):
        table = np.array(cells[:16 // n_cols * n_cols]).reshape(-1, n_cols)
        assert table.size < csvtext._SMALL_CELLS
        assert _written(table) == reference_rows(table, n_cols)
    assert _written(np.array([[-0.0, math.nan, math.inf]])) == b"-0,nan,inf\n"


def test_flag_and_integer_cells_and_empty_table(tmp_path):
    rows = [[0.5, True, 3, -0.0], [1e-300, False, -(2**63), 2**53 + 1],
            [np.float64(2.5), np.True_, 2**63 - 1, np.inf]]
    columns = ["j1", "decays", "n", "x"]
    path = tmp_path / "t.csv"
    _write_csv(str(path), columns, rows)
    assert path.read_bytes() == b"j1,decays,n,x\n" + reference_rows(rows, 4)
    _write_csv(str(path), columns, [])
    assert path.read_bytes() == b"j1,decays,n,x\n"


def _mutant(old: str, new: str) -> types.ModuleType:
    """``csvtext`` with one source change, loaded as a separate module."""
    source = inspect.getsource(csvtext)
    assert source.count(old) == 1
    module = types.ModuleType("csvtext_mutant")
    exec(compile(source.replace(old, new), "csvtext_mutant", "exec"), module.__dict__)
    return module


MUTANTS = {
    "no-near-tie-fallback": ("(np.abs(frac - 0.5) <= _TIE_GUARD) | ", ""),
    "exponent-on-rounded-digits": (
        "low = (s < 1e16) | ((s == 1e16) & (r < 0.0))\n"
        "    high = (s > 1e17) | ((s == 1e17) & (r >= 0.0))",
        "low = np.round(s + r) < 1e16\n"
        "    high = np.round(s + r) >= 1e17"),
}


#: Mutants of the text layout: the point one byte late, and the trailing
#: zeros of the third group read as the last group's.
LAYOUT_MUTANTS = {
    "point-off-by-one-byte": ("at = at.take(point)", "at = at.take(point) + 1"),
    "trailing-zeros-of-wrong-group": ("_TRAILING.take(g3,", "_TRAILING.take(g2,"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_property_and_hard_inputs_catch_mutant(name):
    mutant = _mutant(*MUTANTS[name])
    table = HARD.reshape(-1, 2)
    assert table.size >= csvtext._SMALL_CELLS         # the vectorised path
    assert _written(table, mutant) != reference_rows(table, 2)
    with pytest.raises(AssertionError):
        _property(mutant, phases=(Phase.generate,))()


@pytest.mark.parametrize("name", sorted(LAYOUT_MUTANTS))
def test_property_and_layout_table_catch_mutant(name):
    mutant = _mutant(*LAYOUT_MUTANTS[name])
    table = _layout_table()
    assert table.size >= csvtext._SMALL_CELLS         # the vectorised path
    assert _written(table, mutant) != reference_rows(table, 2)
    with pytest.raises(AssertionError):
        _property(mutant, phases=(Phase.generate,))()
