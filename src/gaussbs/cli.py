"""Command-line front end: point evaluations, sweeps, thresholds, oracle runs.

Subcommands
-----------
negativity    print N, the PT spectrum, determinant and angle diagnosis
              for one parameter point
sweep         write a CSV or JSON-lines grid of negativities; presets
              --fig 1a|1b|1c|2a|2b|3 configure the standard surfaces
critical      print or sweep the critical thermal occupation
oracle-check  compare the Gaussian formulas against the Fock-space engine

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 I/O failure, 4 internal error (an unexpected exception, reported on
one stderr line so that a crash never reads as a verification failure).
Identical invocations produce byte-identical files:
numbers are serialized with 12 significant digits, grids are walked in
row-major order over the axes as declared, and an infinite threshold is
written as the literal token "inf" next to its flag column.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass, field

from .entanglement import (
    ScenarioParams,
    closed_form_terms,
    critical_noise,
    log_negativity,
    negativity_closed_form,
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

    def values(self) -> list[float]:
        if self.count == 1:
            return [self.start]
        step = (self.stop - self.start) / (self.count - 1)
        return [self.start + i * step for i in range(self.count - 1)] + [self.stop]


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

    def points(self):
        axis_values = [axis.values() for axis in self.axes]
        names = [axis.name for axis in self.axes]
        for combo in itertools.product(*axis_values):
            point = dict(self.fixed)
            point.update(zip(names, combo))
            yield point


def evaluate_point(point: dict, with_threshold: bool) -> dict:
    """One output record; ScenarioParams performs the range validation."""
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


def format_number(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "inf"
    return f"{value:.12g}"


def write_records(records: list[dict], columns: list[str], path: str, fmt: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            if fmt == "csv":
                handle.write(",".join(columns) + "\n")
                for record in records:
                    handle.write(",".join(format_number(record[c]) for c in columns) + "\n")
            else:
                for record in records:
                    row = {}
                    for c in columns:
                        value = record[c]
                        if isinstance(value, bool) or isinstance(value, int):
                            row[c] = int(value)
                        elif math.isinf(value):
                            row[c] = "inf"
                        else:
                            row[c] = float(format_number(value))
                    handle.write(json.dumps(row) + "\n")
    except OSError as err:
        raise _IOFailure(str(err)) from err


class _IOFailure(Exception):
    pass


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", help="output file path")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    parser.add_argument("--config", help="key=value file; flags take precedence")
    parser.add_argument("--nx", type=int, default=101, help="first axis resolution")
    parser.add_argument("--ny", type=int, default=101, help="second axis resolution")
    parser.add_argument(
        "--degrees", action="store_true", help="interpret input angles as degrees"
    )


def _add_param_flags(parser: argparse.ArgumentParser, names=PARAM_NAMES, **extra_defaults) -> None:
    defaults = {"phi": 0.0, "phi_b": 0.0, **extra_defaults}
    for name in names:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, type=float, default=defaults.get(name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussbs",
        description="Entanglement from mixing a squeezed state with thermal "
        "noise on a beam splitter",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_neg = sub.add_parser("negativity", help="evaluate one parameter point")
    _add_param_flags(p_neg)
    _add_common_flags(p_neg)

    p_sweep = sub.add_parser("sweep", help="grid sweep to CSV or JSON lines")
    p_sweep.add_argument("--fig", choices=sorted(_FIG_PRESETS), help="figure preset")
    p_sweep.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME:START:STOP:COUNT",
        help="swept axis; repeat for multi-axis grids (row-major order)",
    )
    _add_param_flags(p_sweep)
    _add_common_flags(p_sweep)

    p_crit = sub.add_parser("critical", help="critical thermal occupation")
    p_crit.add_argument("--axis", action="append", default=[], metavar="NAME:START:STOP:COUNT")
    # the threshold itself does not involve nbar; it only feeds the N column
    _add_param_flags(p_crit, names=("tau", "u", "theta", "phi", "phi_b", "nbar"), nbar=0.0)
    _add_common_flags(p_crit)

    p_oracle = sub.add_parser("oracle-check", help="Fock-space cross-check")
    p_oracle.add_argument("--dim", type=int, default=40)
    p_oracle.add_argument("--tol-trace", dest="tol_trace", type=float, default=1e-8)
    p_oracle.add_argument("--tol-compare", dest="tol_compare", type=float, default=1e-3)
    p_oracle.add_argument("--tau-list", default="0.1,0.2,0.3")
    p_oracle.add_argument("--u-list", default="0.5,1")
    p_oracle.add_argument("--nbar-list", default="0,0.5,1")
    p_oracle.add_argument("--theta-list", default=f"{math.pi / 8!r},{math.pi / 4!r}")
    p_oracle.add_argument("--max-tau", dest="max_tau", type=float, default=0.35)
    _add_common_flags(p_oracle)
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    # Two-pass parse so --config supplies defaults that explicit flags override.
    probe, _ = parser.parse_known_args(argv)
    config_path = getattr(probe, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError as err:
            raise _IOFailure(f"cannot read config file: {err}") from err
        overrides = {}
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise DomainError(f"config line {lineno} is not key=value: {stripped!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip().replace("-", "_")
            raw = raw.strip()
            if key == "axis":
                overrides.setdefault("axis", []).append(raw)
                continue
            overrides[key] = raw
        subparsers = list(parser._subparsers._group_actions[0].choices.values())
        known = {action.dest for action in parser._actions}
        for sub_parser in subparsers:
            known |= {action.dest for action in sub_parser._actions}
        for key, raw in overrides.items():
            if key not in known:
                raise DomainError(f"unknown config key {key!r}")
            if key in ("nx", "ny", "dim"):
                value = int(raw)
            elif key in ("format",) or key.endswith("list") or key == "output":
                value = raw
            elif key == "degrees":
                value = raw.lower() in ("1", "true", "yes")
            elif key == "axis":
                value = raw
            else:
                value = float(raw)
            # Subcommand parsers fill a fresh namespace, so defaults must be
            # installed on each parser that owns the destination.
            parser.set_defaults(**{key: value})
            for sub_parser in subparsers:
                if any(action.dest == key for action in sub_parser._actions):
                    sub_parser.set_defaults(**{key: value})
    return parser.parse_args(argv)


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


def _collect_point(args, names=PARAM_NAMES) -> dict:
    point = {}
    for name in names:
        value = getattr(args, name, None)
        if value is None:
            raise DomainError(f"missing required parameter --{name.replace('_', '-')}")
        if args.degrees and name in ANGLE_NAMES:
            value = math.radians(value)
        point[name] = value
    return point


def _cmd_negativity(args) -> int:
    point = _collect_point(args)
    params = ScenarioParams(**point)
    v = output_covariance(params)
    spectrum = pt_symplectic_spectrum(v)
    terms = closed_form_terms(params.tau, params.u, params.nbar, params.theta)
    best = optimal_angle(params.tau, params.u, params.nbar)
    det_v = (2.0 * params.nbar + 1.0) ** 2 / (16.0 * params.u * params.u)
    lines = [
        ("N", log_negativity(v)),
        ("N_closed_form", negativity_closed_form(params)),
        ("xi_minus", spectrum.xi_minus),
        ("xi_plus", spectrum.xi_plus),
        ("det_V_out", det_v),
        ("S", terms.s),
        ("S_plus", terms.s_plus),
        ("S_minus", terms.s_minus),
        ("optimal_theta", best.theta),
        ("diagnosis", best.diagnosis),
    ]
    for key, value in lines:
        print(f"{key} = {value if isinstance(value, str) else format_number(value)}")
    return EXIT_OK


def _grid_from_args(args, preset_allowed: bool, with_threshold: bool) -> tuple[SweepGrid, bool]:
    axes = []
    fixed_override = {}
    if preset_allowed and getattr(args, "fig", None):
        fixed, (ax1, lo1, hi1), (ax2, lo2, hi2), with_threshold = _FIG_PRESETS[args.fig]
        fixed_override.update(fixed)
        axes = [Axis(ax1, lo1, hi1, args.nx), Axis(ax2, lo2, hi2, args.ny)]
    else:
        axes = [_parse_axis(spec, args.degrees) for spec in args.axis]
    swept = {axis.name for axis in axes}
    fixed = {}
    for name in PARAM_NAMES:
        if name in swept:
            continue
        if name in fixed_override:
            fixed[name] = fixed_override[name]
            continue
        value = getattr(args, name, None)
        if value is None:
            if name in ("phi", "phi_b"):
                value = 0.0
            else:
                raise DomainError(
                    f"parameter --{name.replace('_', '-')} must be fixed or swept"
                )
        if args.degrees and name in ANGLE_NAMES:
            value = math.radians(value)
        fixed[name] = value
    return SweepGrid(tuple(axes), fixed), with_threshold


def _cmd_sweep(args) -> int:
    grid, with_threshold = _grid_from_args(args, preset_allowed=True, with_threshold=False)
    if not args.output:
        raise DomainError("sweep requires an output path (-o/--output)")
    records = [evaluate_point(point, with_threshold) for point in grid.points()]
    columns = list(PARAM_NAMES) + ["N", "xi_minus"]
    if with_threshold:
        columns += ["nbar_c", "never_entangled", "infinite_threshold"]
    write_records(records, columns, args.output, args.format)
    print(f"wrote {len(records)} rows to {args.output}")
    return EXIT_OK


def _cmd_critical(args) -> int:
    if args.axis:
        grid, _ = _grid_from_args(args, preset_allowed=False, with_threshold=True)
        if not args.output:
            raise DomainError("critical sweeps require an output path (-o/--output)")
        records = [evaluate_point(point, True) for point in grid.points()]
        columns = list(PARAM_NAMES) + [
            "N",
            "xi_minus",
            "nbar_c",
            "never_entangled",
            "infinite_threshold",
        ]
        write_records(records, columns, args.output, args.format)
        print(f"wrote {len(records)} rows to {args.output}")
        return EXIT_OK
    point = _collect_point(args, names=("tau", "u", "theta"))
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
    skips = 0
    for tau, u, nbar, theta in itertools.product(taus, us, nbars, thetas):
        result = compare_with_gaussian(ScenarioParams(tau, u, nbar, theta), cfg)
        records.append(result)
        marker = result.status
        if result.status == "fail":
            failures += 1
        elif result.status == "skip":
            skips += 1
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
        rows = [
            {
                "tau": r.params.tau,
                "u": r.params.u,
                "nbar": r.params.nbar,
                "theta": r.params.theta,
                "n_gaussian": r.n_gaussian,
                "n_fock": r.n_fock,
                "abs_diff": r.abs_diff,
                "leakage": r.leakage,
                "dim_used": r.dim_used,
                "status": r.status,
            }
            for r in records
        ]
        columns = list(rows[0])
        try:
            with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(",".join(columns) + "\n")
                for row in rows:
                    cells = [
                        row[c] if isinstance(row[c], str) else format_number(row[c])
                        for c in columns
                    ]
                    handle.write(",".join(str(c) for c in cells) + "\n")
        except OSError as err:
            raise _IOFailure(str(err)) from err
    print(
        f"checked {len(records)} points: {len(records) - failures - skips} passed, "
        f"{failures} failed, {skips} skipped"
    )
    if skips and not failures:
        print("warning: some points were skipped after cutoff escalation")
    return EXIT_VERIFICATION if failures else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _apply_config(parser, list(sys.argv[1:] if argv is None else argv))
        if args.command == "negativity":
            return _cmd_negativity(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "critical":
            return _cmd_critical(args)
        if args.command == "oracle-check":
            return _cmd_oracle_check(args)
        raise DomainError(f"unknown command {args.command!r}")
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except _IOFailure as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO
    except Exception as err:  # any other exception is a defect, not a verdict
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())
