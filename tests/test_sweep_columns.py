"""Column-wise sweeps: byte-identical files, bounded chunks, the per-point semantics."""

import hashlib
import itertools
import json
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaussbs import cli
from gaussbs.cli import PARAM_NAMES, Axis, SweepGrid, evaluate_point, format_number, main
from gaussbs.entanglement import (
    ScenarioParams,
    closed_form_terms,
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


def legacy_record(point: dict, with_threshold: bool) -> dict:
    """One record as the per-point sweep computed it, from the scalar API."""
    params = ScenarioParams(**point)
    terms = closed_form_terms(params.tau, params.u, params.nbar, params.theta)
    k_sq = ((2.0 * params.nbar + 1.0) / params.u) ** 2
    disc = max(terms.s * terms.s - k_sq, 0.0)
    two_xi_minus_sq = k_sq / (terms.s + math.sqrt(disc))
    record = {name: point[name] for name in PARAM_NAMES}
    record["N"] = negativity_closed_form(params)
    record["xi_minus"] = 0.5 * math.sqrt(two_xi_minus_sq)
    if with_threshold:
        threshold = critical_noise(params.tau, params.u, params.theta)
        record["nbar_c"] = threshold.value
        record["never_entangled"] = threshold.never_entangled
        record["infinite_threshold"] = threshold.infinite
    return record


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
        for rows, columns, new in grid.chunks(3):
            assert rows <= 3
            points += cli._point_dicts(rows, columns)
        assert points == list(legacy_points(grid))

    def test_each_value_is_new_once(self):
        fixed = {"u": 0.7, "theta": 0.5, "phi": 0.0, "phi_b": 0.0}
        grid = SweepGrid((Axis("tau", 0.0, 0.4, 5), Axis("nbar", 0.0, 2.0, 7)), fixed)
        new = {}
        for _, _, fresh in grid.chunks(4):
            for name, values in fresh.items():
                new.setdefault(name, []).extend(values)
        assert new["tau"] == legacy_values(grid.axes[0])
        assert new["nbar"] == legacy_values(grid.axes[1])
        assert {name: new[name] for name in fixed} == {n: [v] for n, v in fixed.items()}

    def test_huge_axis_is_never_listed(self):
        fixed = {"tau": 0.3, "u": 1.0, "theta": 0.7, "phi": 0.0, "phi_b": 0.0}
        grid = SweepGrid((Axis("nbar", 0.0, 1.0, 10**8),), fixed)
        assert next(grid.points())["nbar"] == 0.0
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
        assert capsys.readouterr().err == "internal error: ZeroDivisionError: float division by zero\n"
        assert not out.exists()  # the first chunk fails before the file is opened

    def test_overflow_message_is_the_per_point_one(self, tmp_path, capsys):
        argv = ["critical", "--axis", "nbar:0:1e308:3", "--tau", "0.3", "--u", "1",
                "--theta", "0.7", "-o", str(tmp_path / "x.csv")]  # fmt: skip
        assert main(argv) == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == "internal error: OverflowError: (34, 'Numerical result out of range')\n"

    def test_first_failing_point_decides(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        fixed = ["--u", "1", "--theta", "0.7", "-o", out]
        # tau turns invalid at its fourth value, after every nbar has overflowed
        overflow_first = ["--axis", "tau:0.1:0.9:5", "--axis", "nbar:1e160:1e161:3"]
        assert main(["sweep", *overflow_first, *fixed]) == cli.EXIT_INTERNAL
        assert "OverflowError" in capsys.readouterr().err
        # the first row already has the invalid tau, before any nbar overflows
        invalid_first = ["--axis", "nbar:1e160:1e161:3", "--axis", "tau:0.9:0.9:1"]
        assert main(["sweep", *invalid_first, *fixed]) == cli.EXIT_INVALID
        assert "nonclassical depth" in capsys.readouterr().err

    def test_no_numpy_warning_reaches_stderr(self, tmp_path, capsys):
        argv = ["sweep", "--axis", "nbar:-1e308:1e308:3", "--tau", "0.3", "--u", "1",
                "--theta", "0.7", "-o", str(tmp_path / "x.csv")]  # fmt: skip
        assert main(argv) == cli.EXIT_INVALID
        assert capsys.readouterr().err == "error: thermal occupation must satisfy nbar >= 0, got nan\n"


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


def outcome(thunk):
    try:
        return thunk(), None
    except Exception as err:  # the exit code only tells DomainError from the rest
        return None, isinstance(err, DomainError)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid=grids(), with_threshold=st.booleans(), chunk=st.integers(1, 7))
def test_grid_equals_the_per_point_route(grid, with_threshold, chunk):
    def grid_records():
        records = []
        with mock.patch.object(cli, "CHUNK", chunk):
            for rows, columns in cli.evaluated_chunks(grid, with_threshold):
                records += cli._point_dicts(rows, columns)
        return records

    def point_records():
        return [legacy_record(point, with_threshold) for point in legacy_points(grid)]

    got, got_error = outcome(grid_records)
    expected, expected_error = outcome(point_records)
    assert got_error == expected_error
    if got is None:
        return
    assert len(got) == len(expected)
    for row, want in zip(got, expected):
        point = {name: want[name] for name in PARAM_NAMES}
        assert all(same_bits(row[k], want[k]) for k in want), (row, want)
        assert all(same_bits(v, want[k]) for k, v in evaluate_point(point, with_threshold).items())
        assert same_bits(row["N"], negativity_closed_form(ScenarioParams(**point)))
        if with_threshold:
            threshold = critical_noise(point["tau"], point["u"], point["theta"])
            assert same_bits(row["nbar_c"], threshold.value)
            assert row["never_entangled"] == threshold.never_entangled
            assert row["infinite_threshold"] == threshold.infinite
