"""CSV round-trips and the key = value config layer."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from randloc import csvio
from randloc.config import SCHEMAS, echo_lines, parse_file, resolve, run_name
from randloc.csvio import (
    format_value,
    read_density,
    read_table,
    read_trajectory,
    write_density,
    write_table,
    write_trajectory,
)
from randloc.errors import ConfigError
from randloc.meanfield import _INIT_GUESSES, resolve_init
from randloc.udist import UGrid, exponential_density, mass


def test_format_value_types():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(np.True_) == "true"
    assert format_value(np.False_) == "false"
    assert format_value(np.int64(7)) == "7"
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value("adopt") == "adopt"


def test_table_round_trip_is_bit_exact(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=3))
    x = rng.random(64)
    y = np.exp(-37.0 * rng.random(64))  # spans many magnitudes
    path = tmp_path / "t.csv"
    write_table(path, {"x": x, "y": y}, meta={"seed": 3, "note": "probe"})
    cols, meta = read_table(path)
    assert np.array_equal(cols["x"], x)  # %.17g preserves every float64 bit
    assert np.array_equal(cols["y"], y)
    assert meta == {"seed": "3", "note": "probe"}


def test_table_bytes_match_per_value_formatting(tmp_path):
    # more rows than one formatting block, with the floats %.17g treats specially
    n = 70001
    rng = np.random.Generator(np.random.Philox(key=5))
    x = rng.standard_normal(n) * np.exp(rng.uniform(-300.0, 300.0, n))
    x[:6] = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324]
    x[65534:65540] = [2.2250738585072014e-308, -1e-310, 0.1, -0.0, np.nan, 1.0]
    with np.errstate(over="ignore"):
        f32 = x.astype(np.float32)
    cols = {"x": x, "f32": f32, "k": rng.integers(-10**12, 10**12, n), "flag": rng.random(n) < 0.5}
    path = tmp_path / "t.csv"
    write_table(path, cols, meta={"seed": 5, "on": True})
    series = list(cols.values())
    want = "# on = true\n# seed = 5\nx,f32,k,flag\n" + "".join(
        ",".join(format_value(c[i]) for c in series) + "\n" for i in range(n)
    )
    assert path.read_bytes() == want.encode("utf-8")


def test_repeated_float_column_keeps_every_bit_pattern(tmp_path):
    # few distinct values, formatted once each; -0.0 and 0.0 stay apart
    n = 70001
    values = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 0.1, 5e-324])
    x = values[np.arange(n) * 5 % values.size]
    x[65533:65539] = [-0.0, 0.0, np.nan, -0.0, np.inf, 0.0]
    cols = {"x": x, "f32": x.astype(np.float32), "k": np.arange(n) % 3}
    path = tmp_path / "t.csv"
    write_table(path, cols)
    series = list(cols.values())
    want = "x,f32,k\n" + "".join(
        ",".join(format_value(c[i]) for c in series) + "\n" for i in range(n)
    )
    assert path.read_bytes() == want.encode("utf-8")
    assert "\n-0,-0," in want and "\n0,0," in want


def _column_bytes(x) -> bytes:
    """The data lines write_table writes for one column x."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_table(path, {"x": x})
        return path.read_bytes().split(b"\n", 1)[1]


def _percent_bytes(x) -> bytes:
    return "".join("%.17g\n" % v for v in np.asarray(x, dtype=np.float64).tolist()).encode()


# distinct values, at least csvio._FEW of them, so that they take the
# vectorized path rather than '%.17g' itself
@settings(max_examples=200)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=csvio._FEW, max_size=200, unique=True))
def test_float64_bit_patterns_print_as_percent_17g(words):
    x = np.array(words, dtype=np.uint64).view(np.float64)
    assert _column_bytes(x) == _percent_bytes(x)


@settings(max_examples=100)
@given(arrays(np.float32, st.integers(csvio._FEW, 200), elements=st.floats(width=32), unique=True))
def test_float32_columns_print_as_percent_17g_of_the_widened_value(x):
    assert _column_bytes(x) == _percent_bytes(x.astype(np.float64))


def test_random_bit_patterns_print_as_percent_17g():
    rng = np.random.Generator(np.random.Philox(key=17))
    x = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    assert _column_bytes(x) == _percent_bytes(x)


def test_edge_floats_print_as_percent_17g():
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    rng = np.random.Generator(np.random.Philox(key=19))
    # 18 significant digits ending in 5, exactly representable: exact ties
    ties = np.floor(rng.uniform(1e15, 2.0**53, 500)) + rng.choice([0.25, 0.75], 500)
    x = np.concatenate([
        powers, -powers,
        np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [float(f"9.9999999999999999e{k}") for k in range(-320, 309)],
        [float(f"-9.9999999999999999e{k}") for k in range(-300, 300, 7)],
        2.0**53 + 2.0 * np.arange(1, 2000),  # 16-digit integers above 2^53
        1e17 + 16.0 * np.arange(1, 2000),  # 18-digit integers
        ties, ties / 1024.0,
        [123456789012345.125, 1234567890123456.25, 0.5, 1.5, 2.5, 0.1, 1e16, 1e17 - 16.0],
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324],
        [2.2250738585072014e-308, 1.7976931348623157e308, 1e-282, 1e298],
    ])
    assert _column_bytes(x) == _percent_bytes(x)
    assert b"\n-0\n" in _column_bytes(x)


def test_mixed_columns_across_the_block_edge(tmp_path):
    n = csvio._ROWS_PER_BLOCK + 37
    rng = np.random.Generator(np.random.Philox(key=23))
    words = np.array(["", "adopt", "a,b", "\u00e9t\u00e9", "x\x00", "-0", "nan"])
    cols = {
        "i": rng.integers(-(2**62), 2**62, n),
        "b": rng.random(n) < 0.3,
        "s": words[rng.integers(0, words.size, n)],
        "f": rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n),
        "r": np.repeat(rng.random(8), n // 8 + 1)[:n],  # repeated: formatted once each
        "o": np.array([1, 2.5, "z", None] * (n // 4) + [True] * (n % 4), dtype=object),
    }
    cols["f"][[0, n // 2, csvio._ROWS_PER_BLOCK - 1, csvio._ROWS_PER_BLOCK]] = [
        0.0, -0.0, np.nan, -np.inf]
    path = tmp_path / "t.csv"
    write_table(path, cols, meta={"flag": np.True_})
    series = list(cols.values())
    want = "# flag = true\ni,b,s,f,r,o\n" + "".join(
        ",".join(format_value(c[i]) for c in series) + "\n" for i in range(n)
    )
    assert path.read_bytes() == want.encode("utf-8")
    assert ",true," in want and ",false," in want


def test_meta_lines_are_sorted(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, {"x": np.arange(3.0)}, meta={"zeta": 1, "alpha": 2, "mid": 3})
    lines = path.read_text().splitlines()
    assert lines[:3] == ["# alpha = 2", "# mid = 3", "# zeta = 1"]
    assert lines[3] == "x"


def test_write_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="lengths differ"):
        write_table(tmp_path / "t.csv", {"a": np.arange(3.0), "b": np.arange(4.0)})


def test_failed_write_keeps_old_file(tmp_path):
    class Unprintable:
        def __str__(self):
            raise RuntimeError("cannot format")

    path = tmp_path / "t.csv"
    write_table(path, {"x": np.arange(3.0)})
    old = path.read_bytes()
    bad = np.array([0.5] * 100 + [Unprintable()] + [0.5] * 100, dtype=object)
    with pytest.raises(RuntimeError, match="cannot format"):
        write_table(path, {"x": np.arange(201.0), "bad": bad})
    assert path.read_bytes() == old
    assert [q.name for q in tmp_path.iterdir()] == ["t.csv"]


def test_read_requires_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# only = meta\n")
    with pytest.raises(ValueError, match="no header"):
        read_table(path)


def test_density_round_trip(tmp_path):
    d = exponential_density(UGrid.from_spacing(12.0, 0.05))
    path = tmp_path / "p.csv"
    write_density(path, d, meta={"kind": "exp"})
    back, meta = read_density(path)
    assert back.grid == d.grid
    assert np.array_equal(back.values, d.values)
    assert meta["kind"] == "exp"


def test_density_reader_validates_columns(tmp_path):
    path = tmp_path / "bad.csv"
    write_table(path, {"u": np.array([0.0, 1.0]), "q": np.array([1.0, 2.0])})
    with pytest.raises(ValueError, match="expected columns"):
        read_density(path)
    path2 = tmp_path / "bad2.csv"
    write_table(path2, {"u": np.array([0.0, 1.0, 3.0]), "p": np.ones(3)})
    with pytest.raises(ValueError, match="uniformly spaced"):
        read_density(path2)


def test_trajectory_round_trip(tmp_path):
    taus = np.linspace(0.0, 5.0, 11)
    g = 1.0 / (1.0 + np.exp(-taus))
    path = tmp_path / "g.csv"
    write_trajectory(path, taus, g)
    t2, g2, _ = read_trajectory(path)
    assert np.array_equal(t2, taus)
    assert np.array_equal(g2, g)
    with pytest.raises(ValueError, match="expected columns"):
        read_trajectory(path, names=("tau", "fraction"))


def test_parse_file_basics(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\n g0 = 0.01 \ntau_end=5\n")
    assert parse_file(path) == {"g0": "0.01", "tau_end": "5"}


@pytest.mark.parametrize(
    "text,msg",
    [
        ("g0 0.01\n", "key = value"),
        ("= 3\n", "empty key"),
        ("a = 1\na = 2\n", "duplicate"),
    ],
)
def test_parse_file_rejects_malformed(tmp_path, text, msg):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=msg):
        parse_file(path)


def test_parse_file_missing_path():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_file("/nonexistent/run.cfg")


def test_resolve_defaults_and_overrides(tmp_path):
    cfg = resolve("gamma")
    assert cfg["g0"] == 0.01 and cfg["method"] == "ode"
    path = tmp_path / "run.cfg"
    path.write_text("g0 = 0.5\n")
    cfg = resolve("gamma", path, {"tau_end": "7"})
    assert cfg["g0"] == 0.5
    assert cfg["tau_end"] == 7.0


def test_resolve_rejects_unknown_and_untyped():
    with pytest.raises(ConfigError, match="unknown subcommand"):
        resolve("diffuse")
    with pytest.raises(ConfigError, match="unknown config keys"):
        resolve("gamma", None, {"gee0": "0.1"})
    with pytest.raises(ConfigError, match="cannot parse"):
        resolve("gamma", None, {"g0": "fast"})
    with pytest.raises(ConfigError, match="not one of"):
        resolve("gamma", None, {"method": "euler"})


@pytest.mark.parametrize("subcommand", ["steady", "transient"])
def test_init_choices_are_the_initial_guesses(subcommand):
    # the configs take their choices from the one table resolve_init reads
    assert SCHEMAS[subcommand]["init"].choices == tuple(_INIT_GUESSES) == ("ue", "exp", "point")
    assert resolve(subcommand)["init"] == "ue"
    grid = UGrid.from_spacing(5.0, 0.05)
    for init in SCHEMAS[subcommand]["init"].choices:
        assert resolve(subcommand, None, {"init": init})["init"] == init
        assert mass(resolve_init(grid, init)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ConfigError, match=r"'flat' not one of \['exp', 'point', 'ue'\]"):
        resolve(subcommand, None, {"init": "flat"})


def test_resolve_tuple_kinds():
    cfg = resolve("mc-steady", None, {"seeds": "1, 2,3", "snapshot_taus": "0.5,1.5"})
    assert cfg["seeds"] == (1, 2, 3)
    assert cfg["snapshot_taus"] == (0.5, 1.5)


def test_echo_lines_sorted_and_typed():
    lines = echo_lines({"b": 0.5, "a": (1, 2), "c": "ue"})
    assert lines == ["a = 1,2", "b = 0.5", "c = ue"]


def test_run_name_stability():
    cfg1 = resolve("steady")
    cfg2 = resolve("steady", None, {"h": "0.01"})  # equals the default
    assert run_name(cfg1) == run_name(cfg2)
    assert len(run_name(cfg1)) == 12
    assert run_name(cfg1) != run_name(resolve("steady", None, {"h": "0.02"}))
    assert run_name(resolve("steady", None, {"name": "mine"})) == "mine"
