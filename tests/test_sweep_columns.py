"""Column-wise sweeps: byte-identical files, bounded chunks, the per-point semantics."""

import hashlib
import itertools
import json
import math
import struct
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from conftest import grid_points, legacy_record
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaussbs import cli
from gaussbs.cli import PARAM_NAMES, Axis, SweepGrid, format_number, main
from gaussbs.entanglement import (
    ScenarioParams,
    cos4,
    critical_noise,
    critical_noise_columns,
    negativity_closed_form,
    negativity_columns,
)
from gaussbs.states import DomainError

THRESHOLD = ["nbar_c", "never_entangled", "infinite_threshold"]

# sha256 of the files written by the per-point sweep before the column-wise one.
FIGURE_DIGESTS = {
    "1a": "00bfe4b5ffbbb6fddc4fd8999ee43ff17dd7a628241c081429dd3e4875cffae4",
    "1b": "28f64676a0679769b91b24610c5943509cd6000771d27e3df044c15aa00858a0",
    "1c": "206ef600949ae9e66cfe04ace4a59f15a73b828cc6593f88e19c552de00dadef",
    "2a": "7d8c206ff04d3d1b54e10607e50dcefd7f9e797ad5d146f9b23deed442a7a471",
    "2b": "2f91f39ee352f0903c7c3e7994db6dbdc469f2bab5c84358a52d08c7fdccb678",
    "3": "0e77be4135582311c98dfced31941588f97ea99b5c55c6d3a803f0fa9976a8c8",
}
# (tau, nbar) of `critical --axis theta:0:pi/2:101 --axis u:0.05:1:101 --format jsonl`
CRITICAL_DIGESTS = {
    (0.1, 0.5): "399966c7dd0792b72165aa69bc77d3c34381b4ebae4e8802740856ba07822e18",
    (0.0, 0.0): "931c85dde910e71625ec2ed191df76759c804b1d172a8fbfdee7f6d32c45b1ef",
    (0.25, 0.0): "2027ab1c14ebbcee2596d8f1e03595f72e24fde8272442223bb2a48429ee897c",
    (0.4, 1.0): "542480ceb8c35ebd6d4309ae6f78b7c485cda634f07180f4a94de5f605348262",
    (0.45, 0.25): "5fa09a90c907aad02b33de6f37291d18bed0631adf08b0d44560c2a245112290",
}


def legacy_text(records: list, columns: list, fmt: str) -> str:
    """The file the per-record writer produced for these records."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(format_number(r[c]) for c in columns) for r in records]
    else:
        lines = []
        for r in records:
            row = {}
            for c in columns:
                value = r[c]
                if isinstance(value, (bool, int)):
                    row[c] = int(value)
                elif math.isinf(value):
                    row[c] = "inf"
                else:
                    row[c] = float(format_number(value))
            lines.append(json.dumps(row))
    return "\n".join(lines) + "\n"


def legacy_values(axis: Axis) -> list:
    if axis.count == 1:
        return [axis.start]
    step = (axis.stop - axis.start) / (axis.count - 1)
    return [axis.start + i * step for i in range(axis.count - 1)] + [axis.stop]


def legacy_points(grid: SweepGrid):
    names = [axis.name for axis in grid.axes]
    for combo in itertools.product(*(legacy_values(axis) for axis in grid.axes)):
        point = dict(grid.fixed)
        point.update(zip(names, combo))
        yield point


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def same_bits(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()  # tells -0.0 from 0.0; nan equals nan
    return type(a) is type(b) and a == b


class TestByteIdentity:
    @pytest.mark.parametrize("fig", sorted(FIGURE_DIGESTS))
    def test_figure_presets(self, tmp_path, fig):
        out = tmp_path / f"fig{fig}.csv"
        assert main(["sweep", "--fig", fig, "-o", str(out)]) == 0
        assert sha256(out) == FIGURE_DIGESTS[fig]

    @pytest.mark.parametrize("tau,nbar", sorted(CRITICAL_DIGESTS))
    def test_critical_grids(self, tmp_path, tau, nbar):
        out = tmp_path / "critical.jsonl"
        argv = [
            "critical",
            "--axis", f"theta:0:{math.pi / 2!r}:101",
            "--axis", "u:0.05:1:101",
            "--tau", repr(tau),
            "--nbar", repr(nbar),
            "--format", "jsonl",
            "-o", str(out),
        ]  # fmt: skip
        assert main(argv) == 0
        assert sha256(out) == CRITICAL_DIGESTS[(tau, nbar)]


class TestChunks:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_grid_longer_than_three_chunks(self, tmp_path, monkeypatch, fmt):
        rows = 3 * cli.CHUNK + 1
        sizes = []
        evaluate = cli._evaluate

        def spy(size, columns, with_threshold):
            sizes.append(size)
            return evaluate(size, columns, with_threshold)

        monkeypatch.setattr(cli, "_evaluate", spy)
        out = tmp_path / f"long.{fmt}"
        argv = ["critical", "--axis", f"theta:0:1.6:{rows}", "--tau", "0.3", "--u", "0.6",
                "--nbar", "0.1", "--format", fmt, "-o", str(out)]  # fmt: skip
        assert main(argv) == 0
        assert max(sizes) <= cli.CHUNK and sum(sizes) == rows and len(sizes) == 4
        fixed = {"tau": 0.3, "u": 0.6, "nbar": 0.1, "phi": 0.0, "phi_b": 0.0}
        grid = SweepGrid((Axis("theta", 0.0, 1.6, rows),), fixed)
        records = [legacy_record(point, True) for point in legacy_points(grid)]
        columns = list(PARAM_NAMES) + ["N", "xi_minus"] + THRESHOLD
        assert out.read_text() == legacy_text(records, columns, fmt)

    def test_chunks_split_inner_axes(self):
        fixed = {"u": 0.7, "theta": 0.5, "phi": 0.0, "phi_b": 0.0}
        grid = SweepGrid((Axis("tau", 0.0, 0.4, 5), Axis("nbar", 0.0, 2.0, 7)), fixed)
        points = []
        for rows, columns in grid.chunks(3):
            assert rows <= 3
            points += cli._point_dicts(rows, columns)
        assert points == list(legacy_points(grid))

    def test_huge_axis_is_never_listed(self):
        fixed = {"tau": 0.3, "u": 1.0, "theta": 0.7, "phi": 0.0, "phi_b": 0.0}
        grid = SweepGrid((Axis("nbar", 0.0, 1.0, 10**8),), fixed)
        assert next(grid_points(grid))["nbar"] == 0.0
        rows, columns = next(cli.evaluated_chunks(grid, False))
        assert rows == cli.CHUNK and len(columns["N"].values) == cli.CHUNK


def bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Every finite double: by value, and by uniform bit pattern, which reaches the
# subnormals and the largest exponents as often as the unit interval.
FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(bits_to_float).filter(math.isfinite),
)
TOKEN_EDGES = [
    9.999999999995e11, 1e12, 1.5e15, 9.99999999999e15, 1e16, 1e11, 123456789012.0,
    5e-324, 1e-322, 2.2250738585072014e-308, 2.225073858507e-308, 1e-307, 1e-5, 1e-4,
    0.0, -0.0, 3.0, -3.0, 0.75, 1.7976931348623157e308,
]  # fmt: skip


def old_json_cell(value) -> str:
    """The JSON cell as the writer produced it by a float round trip."""
    if isinstance(value, (bool, int)):
        return str(int(value))
    if math.isinf(value):
        return '"inf"'
    return json.dumps(float(format_number(value)))


class TestJsonTokens:
    @settings(max_examples=3000, deadline=None)
    @given(value=FINITE_FLOATS)
    def test_token_is_the_repr_of_the_twelve_digit_value(self, value):
        text = f"{value:.12g}"
        assert cli._json_number(text) == repr(float(text))
        assert cli._json_cell(value) == old_json_cell(value)

    @pytest.mark.parametrize("value", TOKEN_EDGES + [-v for v in TOKEN_EDGES])
    def test_edges(self, value):
        text = f"{value:.12g}"
        assert cli._json_number(text) == repr(float(text))
        assert cli._cells(np.array([value]), "jsonl") == [old_json_cell(value)]

    def test_sweep_through_both_parse_back_branches(self, tmp_path):
        # nbar from 1e12 is positional in repr up to 1e16; theta is subnormal
        out = tmp_path / "edges.jsonl"
        argv = ["sweep", "--axis", "nbar:1e12:1e15:7", "--axis", "theta:0:1e-322:3",
                "--tau", "0.3", "--u", "0.6", "--format", "jsonl", "-o", str(out)]  # fmt: skip
        assert main(argv) == 0
        fixed = {"tau": 0.3, "u": 0.6, "phi": 0.0, "phi_b": 0.0}
        grid = SweepGrid((Axis("nbar", 1e12, 1e15, 7), Axis("theta", 0.0, 1e-322, 3)), fixed)
        records = [legacy_record(point, False) for point in legacy_points(grid)]
        text = out.read_text()
        assert text == legacy_text(records, list(PARAM_NAMES) + ["N", "xi_minus"], "jsonl")
        assert '"nbar": 1000000000000.0' in text and '"theta": 5e-323' in text

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_repeated_values_in_one_chunk(self, tmp_path, fmt):
        values = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.0, 1.0, 5e-324, 0.0]
        values += [1e12, -0.0, 0.1, 1e12, math.nan, 3.0]
        size = len(values)
        index = np.arange(size)[::-1] % 5
        chunk = {
            "x": cli.Column(np.array(values)),
            "y": cli.Column(np.array(values[:5]), index),
            "z": cli.Column(np.array([-0.0])),
            "flag": cli.Column([False, True], index % 2),
        }
        out = tmp_path / f"repeats.{fmt}"
        assert cli.write_chunks(str(out), list(chunk), [(size, chunk)], fmt) == size
        records = [
            {"x": x, "y": values[i], "z": -0.0, "flag": bool(i % 2)}
            for x, i in zip(values, index.tolist())
        ]
        assert out.read_text() == legacy_text(records, list(chunk), fmt)
        if fmt == "jsonl":  # 0.0 and -0.0 share no cell
            assert out.read_text().splitlines()[:2] == [
                '{"x": 0.0, "y": 0.0, "z": -0.0, "flag": 0}',
                '{"x": -0.0, "y": "inf", "z": -0.0, "flag": 0}',
            ]


class TestErrors:
    def test_zero_division_exits_4(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["sweep", "--axis", "theta:0:1:3", "--tau", "0.3", "--u", "1e-200",
                "--nbar", "0.5", "-o", str(out)]  # fmt: skip
        assert main(argv) == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == "internal error: FloatingPointError: divide by zero encountered in divide\n"
        assert not out.exists()  # the first chunk fails before the file is opened

    def test_overflow_message_is_numpys(self, tmp_path, capsys):
        argv = ["critical", "--axis", "nbar:0:1e308:3", "--tau", "0.3", "--u", "1",
                "--theta", "0.7", "-o", str(tmp_path / "x.csv")]  # fmt: skip
        assert main(argv) == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == "internal error: FloatingPointError: overflow encountered in multiply\n"

    def test_first_failing_point_decides(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "x.csv"
        # every nbar overflows; tau turns invalid at its last value
        argv = ["sweep", "--axis", "tau:0.1:0.5:5", "--axis", "nbar:1e160:1e161:3",
                "--u", "1", "--theta", "0.7", "-o", str(out)]  # fmt: skip
        # one chunk holds the invalid tau and the overflowing rows: validation comes first
        assert main(argv) == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err == "error: nonclassical depth must satisfy 0 <= tau < 1/2, got tau=0.5\n"
        # the overflowing rows of tau = 0.1 fill the first chunk on their own
        monkeypatch.setattr(cli, "CHUNK", 3)
        assert main(argv) == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == "internal error: FloatingPointError: overflow encountered in multiply\n"
        assert not out.exists()

    def test_no_numpy_warning_reaches_stderr(self, tmp_path, capsys):
        argv = ["sweep", "--axis", "nbar:-1e308:1e308:3", "--tau", "0.3", "--u", "1",
                "--theta", "0.7", "-o", str(tmp_path / "x.csv")]  # fmt: skip
        assert main(argv) == cli.EXIT_INVALID
        assert capsys.readouterr().err == "error: thermal occupation must satisfy nbar >= 0, got -1e+308\n"

    def test_axis_whose_span_overflows(self, tmp_path, capsys):
        # stop - start is inf, but -1e308, 0 and 1e308 are all valid phases
        out = tmp_path / "x.csv"
        argv = ["sweep", "--axis", "phi:-1e308:1e308:3", "--tau", "0.3", "--u", "0.5",
                "--nbar", "0.1", "--theta", "0.7", "-o", str(out)]  # fmt: skip
        assert main(argv) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        rows = out.read_text().splitlines()
        assert [row.split(",")[4] for row in rows] == ["phi", "-1e+308", "0", "1e+308"]
        values = Axis("phi", -MAX_DOUBLE, MAX_DOUBLE, 5).at(np.arange(5))
        expected = [-MAX_DOUBLE, -MAX_DOUBLE / 2, 0.0, MAX_DOUBLE / 2, MAX_DOUBLE]
        assert values.tolist() == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert (values[0], values[-1]) == (-MAX_DOUBLE, MAX_DOUBLE)


MAX_DOUBLE = 1.7976931348623157e308


class TestFlaggedChunks:
    """A chunk whose computation sets a floating-point flag ends the sweep."""

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_huge_nbar_exits_4(self, tmp_path, capsys, fmt):
        # 2 nbar + 1 overflows at the largest nbar
        out = tmp_path / f"huge.{fmt}"
        argv = ["sweep", "--axis", f"nbar:0:{MAX_DOUBLE!r}:2", "--axis", "theta:0.1:1.4:5",
                "--tau", "0.3", "--u", "0.6", "--format", fmt, "-o", str(out)]  # fmt: skip
        assert main(argv) == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == "internal error: FloatingPointError: overflow encountered in multiply\n"
        assert not out.exists()

    def test_overflowed_threshold_exits_4(self, tmp_path, capsys):
        # the single point prints nbar_c = inf here; bisection finds 0.46103
        out = tmp_path / "x.csv"
        argv = ["critical", "--axis", "nbar:10:20:2", "--tau", "0.3", "--u", "1e-80",
                "--theta", "0.5", "-o", str(out)]  # fmt: skip
        assert main(argv) == cli.EXIT_INTERNAL
        assert capsys.readouterr().err.startswith("internal error: FloatingPointError: overflow")
        assert not out.exists()

    def test_earlier_chunks_stay_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CHUNK", 5)
        out = tmp_path / "x.csv"
        argv = ["sweep", "--axis", f"nbar:0:{MAX_DOUBLE!r}:2", "--axis", "theta:0.1:1.4:5",
                "--tau", "0.3", "--u", "0.6", "-o", str(out)]  # fmt: skip
        assert main(argv) == cli.EXIT_INTERNAL
        fixed = {"tau": 0.3, "u": 0.6, "phi": 0.0, "phi_b": 0.0}
        grid = SweepGrid((Axis("nbar", 0.0, 0.0, 1), Axis("theta", 0.1, 1.4, 5)), fixed)
        records = [legacy_record(point, False) for point in legacy_points(grid)]
        assert out.read_text() == legacy_text(records, list(PARAM_NAMES) + ["N", "xi_minus"], "csv")


def spread_doubles(n: int = 10**5) -> np.ndarray:
    """Seeded doubles of both signs over 2^-500 .. 2^500: their squares stay normal."""
    rng = np.random.default_rng(5)
    signs = rng.choice([-1.0, 1.0], n)
    return signs * rng.uniform(1.0, 2.0, n) * np.exp2(rng.integers(-500, 500, n))


class TestFastPathBits:
    """The floating-point facts that give the column route the scalar route's bits."""

    def test_float_power_is_pythons_square(self):
        x = spread_doubles()
        python = np.array([v**2 for v in x.tolist()])
        assert np.array_equal(np.float_power(x, 2.0).view(np.int64), python.view(np.int64))
        # the correctly rounded x*x is not libm pow: a square fast path would show here
        assert not np.array_equal((x * x).view(np.int64), python.view(np.int64))

    def test_log2_of_a_scalar_is_the_array_element(self):
        x = np.abs(spread_doubles())
        scalars = np.array([np.log2(v) for v in x.tolist()])
        assert np.array_equal(scalars.view(np.int64), np.log2(x).view(np.int64))


class TestColumnEvaluators:
    def test_match_the_scalar_api(self):
        rng = np.random.default_rng(11)
        tau = np.concatenate(([0.0, 0.4999999999999999], rng.uniform(0.0, 0.5, 300)))
        u = np.concatenate(([1.0, 0.05], rng.uniform(0.05, 1.0, 300)))
        nbar = np.concatenate(([0.0, 1e6], rng.uniform(0.0, 3.0, 300)))
        theta = np.concatenate(([0.0, math.pi / 4], rng.uniform(0.0, math.pi / 2, 300)))
        n, xi_minus = negativity_columns(tau, u, nbar, cos4(theta))
        value, never, infinite = critical_noise_columns(tau, u, cos4(theta))
        for i in range(len(tau)):
            p = ScenarioParams(tau[i], u[i], nbar[i], theta[i])
            assert same_bits(n[i].item(), negativity_closed_form(p))
            expected = critical_noise(tau[i], u[i], theta[i])
            assert same_bits(value[i].item(), expected.value)
            assert never[i] == expected.never_entangled and infinite[i] == expected.infinite
            fields = {name: getattr(p, name) for name in PARAM_NAMES}
            assert same_bits(xi_minus[i].item(), legacy_record(fields, False)["xi_minus"])

    def test_broadcast_shapes(self):
        n, xi_minus = negativity_columns(0.3, np.array([0.5, 1.0]), np.zeros((3, 1)), 0.0)
        assert n.shape == xi_minus.shape == (3, 2)


# Parameter values for the property test: the boundaries of the validated
# domain and values just outside it, the special angles, purities near the
# presets' 0.05 and extreme finite floats.
TAUS = st.one_of(
    st.sampled_from([0.0, 5e-324, 0.25, 0.4999999999999999, 0.5]),
    st.floats(0.0, 0.5, exclude_max=True),
)
US = st.one_of(
    st.sampled_from([1.0, 0.05, 1e-200, 1e-160, 5e-324, 1.0000000000000002]),
    st.floats(0.0499, 0.0501),
    st.floats(0.0, 1.0, exclude_min=True),
)
NBARS = st.one_of(
    st.sampled_from([0.0, 1e154, 1.7976931348623157e308]),
    st.floats(0.0, 10.0),
    st.floats(0.0, 1.7976931348623157e308),
)
THETAS = st.one_of(
    st.sampled_from([0.0, math.pi / 4, math.pi / 2]),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
PHASES = st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False))
VALUES = {"tau": TAUS, "u": US, "nbar": NBARS, "theta": THETAS, "phi": PHASES, "phi_b": PHASES}


@st.composite
def grids(draw):
    swept = draw(st.lists(st.sampled_from(PARAM_NAMES), min_size=0, max_size=3, unique=True))
    axes = []
    for name in swept:
        a, b = sorted((draw(VALUES[name]), draw(VALUES[name])))
        axes.append(Axis(name, a, b, draw(st.integers(1, 4))))
    fixed = {n: draw(VALUES[n]) for n in PARAM_NAMES if n not in swept}
    return SweepGrid(tuple(axes), fixed)


def flags_alone(point: dict, with_threshold: bool) -> bool:
    """Whether the column evaluators set a floating-point flag on this point alone."""
    cos4t = cos4(point["theta"])
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            negativity_columns(point["tau"], point["u"], point["nbar"], cos4t)
            if with_threshold:
                critical_noise_columns(point["tau"], point["u"], cos4t)
    except FloatingPointError:
        return True
    return False


def expected_chunk(points: list, with_threshold: bool):
    """The records of a chunk, or the class of the error that ends the sweep there."""
    try:
        for point in points:
            ScenarioParams(**point)
    except DomainError:
        return DomainError
    if any(flags_alone(point, with_threshold) for point in points):
        return FloatingPointError
    return [legacy_record(point, with_threshold) for point in points]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid=grids(), with_threshold=st.booleans(), chunk=st.integers(1, 7))
def test_grid_equals_the_per_point_route(grid, with_threshold, chunk):
    points = list(legacy_points(grid))
    with mock.patch.object(cli, "CHUNK", chunk):
        chunks = cli.evaluated_chunks(grid, with_threshold)
        for lo in range(0, len(points), chunk):
            expected = expected_chunk(points[lo : lo + chunk], with_threshold)
            if isinstance(expected, type):
                with pytest.raises(Exception) as error:
                    next(chunks)
                assert isinstance(error.value, DomainError) == (expected is DomainError)
                return
            rows, columns = next(chunks)
            got = list(cli._point_dicts(rows, columns))
            assert len(got) == len(expected)
            for row, want in zip(got, expected):
                assert all(same_bits(row[k], want[k]) for k in want), (row, want)
        assert next(chunks, None) is None


# Values at the ends of the validated intervals and just past them: zero of
# both signs and the smallest subnormal, the tau and u bounds, the largest
# angles whose cos(4 theta) exists, and the non-finite values.
EDGES = [0.0, -0.0, 5e-324, 0.4999999999999999, 0.5, 1.0, 1.0000000000000002,
         4.49e307, -4.49e307, 4.5e307, -4.5e307, math.inf, -math.inf, math.nan]  # fmt: skip
EDGE_COLUMNS = st.one_of(st.just([0.25]), st.lists(st.sampled_from(EDGES), min_size=1, max_size=2))
# EDGES with every sixteenth power of two and the depths 1/2 - 2^-k: dense
# enough in magnitude that a floor tying two parameters together, such as
# u^2 (1 - 2 tau) >= eps, fails a pair of values that pass one at a time.
LADDER = EDGES + [2.0**k for k in range(-1074, 1024, 16)] + [0.5 - 2.0**-k for k in range(1, 55)]


def valid(point: dict) -> bool:
    try:
        ScenarioParams(**point)
    except DomainError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(values=st.fixed_dictionaries({name: EDGE_COLUMNS for name in PARAM_NAMES}))
def test_column_ranges_decide_validity(values):
    """The range check of a chunk: its min and max points pass exactly when every row does."""
    rows = [dict(zip(PARAM_NAMES, combo)) for combo in itertools.product(*values.values())]
    columns = {name: cli.Column(np.array([row[name] for row in rows])) for name in PARAM_NAMES}
    every_row = all(valid(row) for row in rows)
    bounds = [{n: bound(c.values) for n, c in columns.items()} for bound in (np.min, np.max)]
    assert all(valid(point) for point in bounds) == every_row
    grid = SimpleNamespace(chunks=lambda size: iter([(len(rows), columns)]))
    refused = False
    try:
        next(cli.evaluated_chunks(grid, True))
    except DomainError:
        refused = True
    except FloatingPointError:  # a valid chunk can still overflow
        pass
    assert refused != every_row


@pytest.mark.parametrize("a,b", [("tau", "u"), ("tau", "nbar"), ("u", "nbar")])
def test_no_check_ties_two_parameters(a, b):
    """Two values pass together exactly when each passes alone, which the range check needs."""
    base = {"tau": 0.0, "u": 1.0, "nbar": 0.0, "theta": 0.0, "phi": 0.0, "phi_b": 0.0}
    alone_a = [valid({**base, a: x}) for x in LADDER]
    alone_b = [valid({**base, b: y}) for y in LADDER]
    for x, ok_a in zip(LADDER, alone_a):
        for y, ok_b in zip(LADDER, alone_b):
            assert valid({**base, a: x, b: y}) == (ok_a and ok_b), (a, x, b, y)
