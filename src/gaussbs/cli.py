"""Command-line front end: point evaluations, sweeps, thresholds, oracle runs.

Subcommands
-----------
negativity    print N, the PT spectrum, determinant and angle diagnosis
              for one parameter point
sweep         write a CSV or JSON-lines grid of negativities; presets
              --fig 1a|1b|1c|2a|2b|3 configure the standard surfaces
critical      print or sweep the critical thermal occupation
oracle-check  compare the Gaussian formulas against the Fock-space engine

Each subcommand declares only the options it reads; a flag that the chosen
run would not read (an --axis or a preset parameter beside --fig, --nx/--ny
without it, -o, --format, --nbar, --phi or --phi-b on a single critical
point) is invalid input.  A --config file holds one key=value per line;
each line is parsed as the flag --key=value placed before the command-line
flags, so it is typed like the flag, must name an option of the command,
and loses to an explicit flag.  Only the switch degrees takes a value
there: 1/true/yes or 0/false/no.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 I/O failure (also a stdout whose reader has gone), 4 internal error (an
unexpected exception, reported on one stderr line so that a crash never
reads as a verification failure).
Identical invocations produce byte-identical files:
numbers are serialized with 12 significant digits and grids are walked in
row-major order over the axes as declared.  Sweeps are evaluated
column-wise and written in chunks of CHUNK rows, so their memory does not
grow with the grid.  A chunk whose computation sets a floating-point flag
ends the sweep with exit 4, so a sweep never writes an inf threshold or a
value computed through an overflow; a single critical point prints an
infinite threshold as "inf".
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .entanglement import (
    ScenarioParams,
    closed_form_terms,
    cos4,
    critical_noise,
    critical_noise_columns,
    log_negativity,
    negativity_closed_form,
    negativity_columns,
    optimal_angle,
    output_covariance,
    pt_symplectic_spectrum,
)
from .fock import OracleConfig, compare_with_gaussian
from .states import DomainError

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

PARAM_NAMES = ("tau", "u", "nbar", "theta", "phi", "phi_b")
ANGLE_NAMES = ("theta", "phi", "phi_b")
THRESHOLD_COLUMNS = ("nbar_c", "never_entangled", "infinite_threshold")
# Options of `critical` that only its --axis grids read, with their values
# there when not given: nbar feeds the N column, the phases and the format
# the rows.
_CRITICAL_GRID_DEFAULTS = {"nbar": 0.0, "phi": 0.0, "phi_b": 0.0, "format": "csv"}

# Rows evaluated, formatted and written per step of a sweep, so that the
# memory a sweep needs does not grow with its grid.
CHUNK = 4096

_FIG_PRESETS = {
    # name: (fixed values, first axis, second axis, with threshold columns)
    "1a": ({"tau": 0.2, "u": 1.0}, ("nbar", 0.0, 0.5), ("theta", 0.0, math.pi / 2), False),
    "1b": ({"tau": 0.4, "u": 1.0}, ("nbar", 0.0, 2.5), ("theta", 0.0, math.pi / 2), False),
    "1c": ({"tau": 0.45, "u": 1.0}, ("nbar", 0.0, 5.0), ("theta", 0.0, math.pi / 2), False),
    "2a": ({"tau": 0.45, "nbar": 1.0}, ("u", 0.05, 1.0), ("theta", 0.0, math.pi / 2), False),
    "2b": ({"tau": 0.45, "nbar": 4.0}, ("u", 0.05, 1.0), ("theta", 0.0, math.pi / 2), False),
    "3": ({"tau": 0.4, "nbar": 0.0}, ("u", 0.05, 1.0), ("theta", 0.0, math.pi / 2), True),
}


@dataclass(frozen=True)
class Axis:
    """One swept parameter: name plus an inclusive linear range."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in PARAM_NAMES:
            raise DomainError(
                f"unknown axis {self.name!r}; expected one of {', '.join(PARAM_NAMES)}"
            )
        if self.count < 1:
            raise DomainError(f"axis {self.name}: count must be >= 1, got {self.count}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise DomainError(f"axis {self.name}: range must be finite")
        if self.start > self.stop:
            raise DomainError(
                f"axis {self.name}: start {self.start} exceeds stop {self.stop}"
            )

    def at(self, positions: np.ndarray) -> np.ndarray:
        """Values at the given positions: start + i*step, and stop at the last.

        Where stop - start overflows, the step is taken as the difference of
        stop and start each divided by count - 1, which do not.
        """
        if self.count == 1:
            return np.full(len(positions), self.start)
        step = (self.stop - self.start) / (self.count - 1)
        with np.errstate(all="ignore"):  # inf and nan as Python floats give them
            if math.isfinite(step):
                values = self.start + positions * step
            else:
                values = (
                    self.start
                    + positions * (self.stop / (self.count - 1))
                    - positions * (self.start / (self.count - 1))
                )
        values[positions == self.count - 1] = self.stop
        return values


class Column(NamedTuple):
    """One column of a chunk of rows: ``values[index]`` row by row, or
    ``values`` broadcast over the rows when there is no index.

    A swept parameter holds the distinct axis values that its rows use, so
    its range is read and each value formatted once; a fixed one holds one
    value.
    """

    values: object  # np.ndarray, or a list of Python values
    index: Optional[np.ndarray] = None

    def rows(self, size: int) -> np.ndarray:
        values = np.asarray(self.values)
        return np.broadcast_to(values if self.index is None else values[self.index], (size,))


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian grid: declared axes (row-major) over fixed parameter values."""

    axes: tuple[Axis, ...]
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise DomainError(f"axis names must be unique, got {names}")
        for name in self.fixed:
            if name not in PARAM_NAMES:
                raise DomainError(f"unknown parameter {name!r}")
        missing = [n for n in PARAM_NAMES if n not in names and n not in self.fixed]
        if missing:
            raise DomainError(f"parameters neither fixed nor swept: {', '.join(missing)}")

    def size(self) -> int:
        return math.prod(axis.count for axis in self.axes)

    def chunks(self, size: int = CHUNK):
        """The grid in row-major runs of at most ``size`` rows.

        Yields (rows, columns) per run: columns maps every parameter to a
        Column.  Only the run's own axis values are computed, never a list
        of the whole grid.
        """
        strides = [math.prod(a.count for a in self.axes[k + 1 :]) for k in range(len(self.axes))]
        total = self.size()
        for lo in range(0, total, size):
            hi = min(lo + size, total)
            flat = np.arange(lo, hi)
            columns = {name: Column(np.array([v], dtype=float)) for name, v in self.fixed.items()}
            for axis, stride in zip(self.axes, strides):
                first, last = lo // stride, (hi - 1) // stride
                if last - first + 1 >= axis.count:  # the run visits every value
                    positions = np.arange(axis.count)
                    index = flat // stride % axis.count
                else:
                    positions = np.arange(first, last + 1) % axis.count
                    index = flat // stride - first
                columns[axis.name] = Column(axis.at(positions), index)
            yield hi - lo, columns


def _point_dicts(rows: int, columns: dict):
    names = list(columns)
    for combo in zip(*(columns[name].rows(rows).tolist() for name in names)):
        yield dict(zip(names, combo))


_FLAGS = [False, True]


def _evaluate(rows: int, columns: dict, with_threshold: bool) -> dict:
    """The computed columns of a chunk: the closed form on its parameter columns."""
    theta = columns["theta"]
    cos4t = Column(cos4(theta.values), theta.index).rows(rows)  # math.cos per distinct angle
    tau, u, nbar = (columns[name].rows(rows) for name in ("tau", "u", "nbar"))
    n, xi_minus = negativity_columns(tau, u, nbar, cos4t)
    computed = {"N": Column(n), "xi_minus": Column(xi_minus)}
    if with_threshold:
        value, never, infinite = critical_noise_columns(tau, u, cos4t)
        computed["nbar_c"] = Column(value)
        computed["never_entangled"] = Column(_FLAGS, never.astype(np.intp))
        computed["infinite_threshold"] = Column(_FLAGS, infinite.astype(np.intp))
    return computed


def evaluated_chunks(grid: SweepGrid, with_threshold: bool):
    """Each chunk of the grid with its computed columns added.

    A chunk is validated by its column ranges: ScenarioParams is built at
    the per-column minima and at the per-column maxima.  Every check bounds
    one parameter to an interval, so both points pass exactly when every
    row does, and a NaN makes np.min and np.max NaN and fails both.  When
    one fails, the rows are validated in order, so that the first invalid
    row names the error.  A valid chunk is computed column-wise with
    numpy's division, overflow and invalid flags raising: a
    FloatingPointError is a defect of the formulas and ends the sweep.
    """
    for rows, columns in grid.chunks(CHUNK):
        try:
            for bound in (np.min, np.max):
                ScenarioParams(**{name: bound(column.values) for name, column in columns.items()})
        except DomainError:
            for point in _point_dicts(rows, columns):
                ScenarioParams(**point)
            raise
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            columns.update(_evaluate(rows, columns, with_threshold))
        yield rows, columns


def format_number(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "inf"
    return f"{value:.12g}"


def _json_number(text: str) -> str:
    """repr(float(text)) for the %.12g text of a finite value: the text itself,
    but integral values need ".0", repr writes exponents 12 to 15 positionally,
    and at 1e-308 and below a subnormal's shortest repr can be shorter."""
    if "e" not in text:
        return text if "." in text else text + ".0"
    if -308 < int(text[text.index("e") + 1 :]) < 12:
        return text
    return repr(float(text))


def _json_cell(value) -> str:
    if isinstance(value, (bool, int)):
        return str(int(value))
    if math.isfinite(value):
        return _json_number(format_number(value))
    return '"inf"' if math.isinf(value) else "NaN"  # NaN as json.dumps writes it


def _cells(values, fmt: str) -> list[str]:
    """Each value serialized: 12 significant digits, flags as 0/1, inf as "inf".

    CSV passes strings through.  A float64 array is formatted in one pass,
    JSON lines by _json_number on its %.12g text; its non-finite entries and
    all other values go through format_number (CSV) or _json_cell.
    """
    cell = format_number if fmt == "csv" else _json_cell
    if getattr(values, "dtype", None) == np.float64:
        cells = [f"{v:.12g}" for v in values.tolist()]
        if fmt == "jsonl":
            cells = [_json_number(c) for c in cells]  # "inf" and "nan" are replaced below
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            cells[i] = cell(values[i].item())
        return cells
    return [v if isinstance(v, str) and fmt == "csv" else cell(v) for v in values]


def write_chunks(path: str, columns: list[str], chunks, fmt: str) -> int:
    """Write (rows, {name: Column}) chunks as CSV or JSON lines; return the row count.

    Each distinct value of a column is formatted once per chunk: each bit
    pattern of a float64 array, so that 0.0 and -0.0 (and NaN payloads) stay
    apart.  The first chunk is taken before the file is opened, so that a
    grid which fails in its first chunk leaves no file behind.
    """
    chunks = iter(chunks)
    first = next(chunks)
    keys = [json.dumps(name) + ": " if fmt == "jsonl" else "" for name in columns]
    written = 0
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            if fmt == "csv":
                handle.write(",".join(columns) + "\n")
            for rows, chunk in itertools.chain([first], chunks):
                cells = []
                for name, key in zip(columns, keys):
                    values, index = chunk[name]
                    if getattr(values, "dtype", None) == np.float64 and values.size > 1:
                        bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
                        values = bits.view(np.float64)
                        index = inverse if index is None else inverse[index]
                    formatted = _cells(values, fmt)
                    if key:
                        formatted = [key + c for c in formatted]
                    if index is not None:
                        formatted = [formatted[i] for i in index.tolist()]
                    elif len(formatted) == 1:
                        formatted = itertools.repeat(formatted[0], rows)
                    cells.append(formatted)
                if fmt == "csv":
                    lines = map(",".join, zip(*cells))
                else:
                    lines = ("{" + ", ".join(row) + "}" for row in zip(*cells))
                if rows:
                    handle.write("\n".join(lines) + "\n")
                written += rows
    except OSError as err:
        raise _IOFailure(str(err)) from err
    return written


class _IOFailure(Exception):
    pass


def _flag(name: str) -> str:
    """The long flag of an option: every option's flag spells its destination."""
    return "--" + name.replace("_", "-")


def _add_param_flags(parser: argparse.ArgumentParser, **defaults) -> None:
    defaults = {"phi": 0.0, "phi_b": 0.0, **defaults}
    for name in PARAM_NAMES:
        parser.add_argument(_flag(name), dest=name, type=float, default=defaults.get(name))


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="file of key=value flags; command-line flags win")
    parser.add_argument(
        "--degrees", action="store_true", help="interpret input angles as degrees"
    )


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME:START:STOP:COUNT",
        help="swept axis; repeat for multi-axis grids (row-major order)",
    )
    parser.add_argument("-o", "--output", help="output file path")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussbs",
        description="Entanglement from mixing a squeezed state with thermal "
        "noise on a beam splitter",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_neg = sub.add_parser("negativity", help="evaluate one parameter point")
    _add_param_flags(p_neg)
    _add_input_flags(p_neg)

    p_sweep = sub.add_parser("sweep", help="grid sweep to CSV or JSON lines")
    p_sweep.add_argument("--fig", choices=sorted(_FIG_PRESETS), help="figure preset")
    p_sweep.add_argument("--nx", type=int, help="--fig first axis resolution (default 101)")
    p_sweep.add_argument("--ny", type=int, help="--fig second axis resolution (default 101)")
    _add_grid_flags(p_sweep)
    _add_param_flags(p_sweep)
    _add_input_flags(p_sweep)

    p_crit = sub.add_parser("critical", help="critical thermal occupation")
    _add_grid_flags(p_crit)
    _add_param_flags(p_crit)
    _add_input_flags(p_crit)
    # Only a grid reads these; None tells a single point that they were given.
    p_crit.set_defaults(**dict.fromkeys(_CRITICAL_GRID_DEFAULTS))

    p_oracle = sub.add_parser("oracle-check", help="Fock-space cross-check")
    p_oracle.add_argument("--dim", type=int, default=OracleConfig.dim)
    p_oracle.add_argument("--tol-trace", type=float, default=OracleConfig.tol_trace)
    p_oracle.add_argument("--tol-compare", type=float, default=OracleConfig.tol_compare)
    p_oracle.add_argument("--tau-list", default="0.1,0.2,0.3")
    p_oracle.add_argument("--u-list", default="0.5,1")
    p_oracle.add_argument("--nbar-list", default="0,0.5,1")
    p_oracle.add_argument("--theta-list", default=f"{math.pi / 8!r},{math.pi / 4!r}")
    p_oracle.add_argument("--max-tau", type=float, default=0.35)
    p_oracle.add_argument("-o", "--output", help="CSV report path")
    _add_input_flags(p_oracle)
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv, reading a --config file as flags placed before the user's.

    Each key=value line becomes the token --key=value after the command
    name, so argparse types and checks it like the flag, an explicit flag
    (parsed later) wins, and config axes come before command-line ones.
    """
    args = parser.parse_args(argv)
    if not args.config:
        return args
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as err:
        raise _IOFailure(f"cannot read config file: {err}") from err
    # The options of a command are the keys of its default namespace.
    keys = set(vars(parser.parse_args([args.command]))) - {"command", "config"}
    tokens = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DomainError(f"config line {lineno} is not key=value: {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip().replace("-", "_"), raw.strip()
        if key not in keys:
            raise DomainError(f"unknown config key {key!r} for {args.command}")
        if key != "degrees":
            tokens.append(f"{_flag(key)}={raw}")
        elif raw.lower() in ("1", "true", "yes"):  # a switch: its flag takes no value
            tokens.append(_flag(key))
        elif raw.lower() not in ("0", "false", "no"):
            raise DomainError(f"config key 'degrees' takes 1/true/yes or 0/false/no, got {raw!r}")
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])


def _parse_axis(spec: str, degrees: bool) -> Axis:
    parts = spec.split(":")
    if len(parts) != 4:
        raise DomainError(f"axis must be NAME:START:STOP:COUNT, got {spec!r}")
    name = parts[0].strip().replace("-", "_")
    try:
        start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as err:
        raise DomainError(f"malformed axis {spec!r}: {err}") from err
    if degrees and name in ANGLE_NAMES:
        start, stop = math.radians(start), math.radians(stop)
    return Axis(name, start, stop, count)


def _grid_from_args(args) -> tuple[SweepGrid, bool]:
    """The grid that the flags describe, and whether its preset adds threshold columns.

    Without --fig or --axis the grid is the single point of the fixed
    values: negativity and single-point critical read their parameters here
    too.  A flag that the chosen grid would not read is invalid input.
    """
    fig = getattr(args, "fig", None)
    if fig:
        fixed, (ax1, lo1, hi1), (ax2, lo2, hi2), with_threshold = _FIG_PRESETS[fig]
        if args.axis:
            raise DomainError(f"--fig {fig} sets the axes; --axis cannot be combined with it")
        for name in (*fixed, ax1, ax2):
            if getattr(args, name) is not None:
                raise DomainError(f"--fig {fig} sets {_flag(name)}; drop the flag")
        nx, ny = (101 if n is None else n for n in (args.nx, args.ny))
        axes = [Axis(ax1, lo1, hi1, nx), Axis(ax2, lo2, hi2, ny)]
        fixed = dict(fixed)
    else:
        for name in ("nx", "ny"):
            if getattr(args, name, None) is not None:
                raise DomainError(f"{_flag(name)} sets a --fig resolution; it needs --fig")
        axes = [_parse_axis(spec, args.degrees) for spec in getattr(args, "axis", [])]
        fixed, with_threshold = {}, False
    swept = {axis.name for axis in axes}
    for name in PARAM_NAMES:
        if name in swept or name in fixed:
            continue
        value = getattr(args, name)
        if value is None:
            raise DomainError(f"missing required parameter {_flag(name)}")
        if args.degrees and name in ANGLE_NAMES:
            value = math.radians(value)
        fixed[name] = value
    return SweepGrid(tuple(axes), fixed), with_threshold


def _cmd_negativity(args) -> int:
    grid, _ = _grid_from_args(args)
    params = ScenarioParams(**grid.fixed)
    v = output_covariance(params)
    spectrum = pt_symplectic_spectrum(v)
    terms = closed_form_terms(params.tau, params.u, params.nbar, params.theta)
    best = optimal_angle(params.tau, params.u, params.nbar)
    lines = [
        ("N", log_negativity(v)),
        ("N_closed_form", negativity_closed_form(params)),
        ("xi_minus", spectrum.xi_minus),
        ("xi_plus", spectrum.xi_plus),
        ("det_V_out", v.invariants.det_v),
        ("S", terms.s),
        ("S_plus", terms.s_plus),
        ("S_minus", terms.s_minus),
        ("optimal_theta", best.theta),
        ("diagnosis", best.diagnosis),
    ]
    for key, value in lines:
        print(f"{key} = {value if isinstance(value, str) else format_number(value)}")
    return EXIT_OK


def _write_grid(grid: SweepGrid, with_threshold: bool, path: str, fmt: str) -> int:
    columns = list(PARAM_NAMES) + ["N", "xi_minus"]
    if with_threshold:
        columns += THRESHOLD_COLUMNS
    rows = write_chunks(path, columns, evaluated_chunks(grid, with_threshold), fmt)
    print(f"wrote {rows} rows to {path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    grid, with_threshold = _grid_from_args(args)
    if not args.output:
        raise DomainError("sweep requires an output path (-o/--output)")
    return _write_grid(grid, with_threshold, args.output, args.format)


def _cmd_critical(args) -> int:
    if not args.axis:
        if args.output:
            raise DomainError("-o/--output writes critical --axis grids; a single point prints")
        for name in _CRITICAL_GRID_DEFAULTS:
            if getattr(args, name) is not None:
                raise DomainError(
                    f"{_flag(name)} is read by critical --axis grids; a single point ignores it"
                )
    for name, default in _CRITICAL_GRID_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    grid, _ = _grid_from_args(args)
    if args.axis:
        if not args.output:
            raise DomainError("critical sweeps require an output path (-o/--output)")
        return _write_grid(grid, True, args.output, args.format)
    point = grid.fixed
    result = critical_noise(point["tau"], point["u"], point["theta"])
    print(f"nbar_c = {format_number(result.value)}")
    print(f"flag = {result.flag}")
    print(f"never_entangled = {1 if result.never_entangled else 0}")
    print(f"infinite_threshold = {1 if result.infinite else 0}")
    return EXIT_OK


def _parse_list(raw: str, name: str) -> list[float]:
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError as err:
        raise DomainError(f"malformed {name} list {raw!r}: {err}") from err
    if not values:
        raise DomainError(f"{name} list is empty")
    return values


def _cmd_oracle_check(args) -> int:
    taus = _parse_list(args.tau_list, "tau")
    us = _parse_list(args.u_list, "u")
    nbars = _parse_list(args.nbar_list, "nbar")
    thetas = _parse_list(args.theta_list, "theta")
    if args.degrees:
        thetas = [math.radians(t) for t in thetas]
    for tau in taus:
        if tau > args.max_tau:
            raise DomainError(
                f"tau={tau} outside oracle validity (tau <= {args.max_tau}); "
                "raise --max-tau explicitly to override"
            )
    cfg = OracleConfig(dim=args.dim, tol_trace=args.tol_trace, tol_compare=args.tol_compare)
    records = []
    failures = 0
    skips = Counter()
    for tau, u, nbar, theta in itertools.product(taus, us, nbars, thetas):
        result = compare_with_gaussian(ScenarioParams(tau, u, nbar, theta), cfg)
        records.append(result)
        marker = result.status
        if result.status == "fail":
            failures += 1
        elif result.status == "skip":
            skips["memory" if result.note.startswith("memory") else "leakage"] += 1
        detail = (
            f"tau={tau:g} u={u:g} nbar={nbar:g} theta={theta:.6g} "
            f"N_gaussian={format_number(result.n_gaussian)} "
            f"N_fock={format_number(result.n_fock)} "
            f"abs_diff={format_number(result.abs_diff)} "
            f"leakage={format_number(result.leakage)} dim={result.dim_used} {marker}"
        )
        if result.note:
            detail += f" ({result.note})"
        print(detail)
    if args.output:
        params = ("tau", "u", "nbar", "theta")
        results = ("n_gaussian", "n_fock", "abs_diff", "leakage", "dim_used", "status")
        report = {name: Column([getattr(r.params, name) for r in records]) for name in params}
        report.update({name: Column([getattr(r, name) for r in records]) for name in results})
        write_chunks(args.output, list(report), [(len(records), report)], "csv")
    skipped = sum(skips.values())
    print(
        f"checked {len(records)} points: {len(records) - failures - skipped} passed, "
        f"{failures} failed, {skipped} skipped"
    )
    if skipped:
        reasons = [
            f"{skips[reason]} {text}"
            for reason, text in (
                ("leakage", "with leakage above budget after cutoff escalation"),
                ("memory", "whose window would not fit in the available memory"),
            )
            if skips[reason]
        ]
        print(f"warning: some points were skipped: {'; '.join(reasons)}")
    return EXIT_VERIFICATION if failures else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    commands = {
        "negativity": _cmd_negativity,
        "sweep": _cmd_sweep,
        "critical": _cmd_critical,
        "oracle-check": _cmd_oracle_check,
    }
    try:
        args = _apply_config(parser, list(sys.argv[1:] if argv is None else argv))
        code = commands[args.command](args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except _IOFailure as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO
    except BrokenPipeError as err:
        # The reader of stdout has gone; point stdout at the null device so
        # that the interpreter's last flush has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"I/O error: standard output closed: {err}", file=sys.stderr)
        return EXIT_IO
    except Exception as err:  # any other exception is a defect, not a verdict
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())
