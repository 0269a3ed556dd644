"""Command-line front end: runs, sweeps, figure data, validation.

Subcommands: ``run | fig-rho01 | fig-tmin | fig-tmax | sweep | validate``.
Configuration comes from an optional flat key=value file plus flag
overrides (flags win). Output is CSV (default) or JSON, written to stdout
or ``--out``; temperatures are in units of ``delta_e`` (``delta_e / k_B``)
and times in ``1/g``, as stated in the CSV header comment. Exit codes:
0 success, 1 validation-suite failure, 2 usage or configuration error,
3 numeric failure.

``fig-tmin``, ``fig-tmax`` (on any grid), ``--help`` and ``--version``
load no numpy: the commands that simulate import it and the simulating
modules when they run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import __version__
from .analytic import PULSE_MODES, PhysicalParams, Timescales, rho01_analytic, t_max, t_min

if TYPE_CHECKING:
    from .hilbert import CoherentPrep
    from .protocol import ProtocolConfig, SweepPoint


class ConfigError(ValueError):
    """Bad configuration file or flag combination (exit code 2)."""


# Each --initial-level of fig-rho01: its diagonal atoms (excited population
# 1 or 0), each with the suffix of its coherence columns.
_INITIAL_LEVELS = {"e": ((1.0, ""),), "g": ((0.0, ""),),
                   "both": ((1.0, "_e"), (0.0, "_g"))}

# Every setting, in ``--help`` order: the type a config file or flag value
# is read as, then the flag's argparse keywords (``None``: config file only).
# Flags win over the config file. Bounds, and a config file's values against
# the ``choices``, are checked in ``RunSpec``.
_SETTINGS: dict[str, tuple[type, dict | None]] = {
    "out": (str, {"help": "output path (default stdout)"}),
    "format": (str, {"choices": ("csv", "json")}),
    "n_bar": (float, {"help": "mean photon number (fig-tmin/fig-tmax: single-point grid)"}),
    "g": (float, {"help": "atom-field coupling"}),
    "delta_e": (float, {"help": "atomic splitting (= field frequency)"}),
    "phi": (float, {"help": "coherent field phase"}),
    "time": (float, {"help": "interaction time"}),
    "pe0": (float, {"help": "initial excited population (else thermal initial_beta)"}),
    "initial_beta": (float, None),
    "cutoff": (int, {"help": "Fock cutoff override"}),
    "grid_points": (int, {"help": "grid size for sweep/figure subcommands"}),
    "initial_level": (str, {"choices": tuple(_INITIAL_LEVELS),
                            "help": "initial atom level for fig-rho01 (default e)"}),
    "pulse_mode": (str, {"choices": PULSE_MODES, "help": "how the half pulse is realized"}),
}


def parse_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file (#-comments and blank lines ok)."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SETTINGS:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r} (known: "
                f"{', '.join(sorted(_SETTINGS))})"
            )
        try:
            values[key] = _SETTINGS[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


@dataclass(frozen=True)
class RunSpec:
    """Fully resolved invocation: subcommand plus effective settings.

    Construction checks each setting's bounds, and holds each choice-valued
    setting to the ``choices`` of its flag in ``_SETTINGS``: a config file's
    values never reach argparse.
    """

    command: str
    n_bar: float = 36.0
    g: float = 1.0
    delta_e: float = 1.0
    phi: float = 0.0
    time: float = 0.0
    pe0: float | None = None
    initial_beta: float | None = None
    cutoff: int | None = None
    grid_points: int | None = None
    initial_level: str = "e"
    pulse_mode: str = "explicit_unitary"
    format: str = "csv"
    out: str | None = None
    n_bar_given: bool = False

    def __post_init__(self) -> None:
        for name in ("n_bar", "g", "delta_e", "phi", "time", "pe0"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        # initial_beta = +/-inf is a ground or fully inverted atom.
        if self.initial_beta is not None and math.isnan(self.initial_beta):
            raise ConfigError("initial_beta must not be NaN")
        for name in ("n_bar", "g", "delta_e"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.time < 0:
            raise ConfigError(f"time must be non-negative, got {self.time}")
        if self.pe0 is not None and not 0.0 <= self.pe0 <= 1.0:
            raise ConfigError(f"pe0 must lie in [0, 1], got {self.pe0}")
        if self.pe0 is not None and self.initial_beta is not None:
            raise ConfigError("give at most one of pe0 and initial_beta")
        if self.cutoff is not None and self.cutoff <= 0:
            raise ConfigError(f"cutoff must be positive, got {self.cutoff}")
        if self.grid_points is not None and self.grid_points < 1:
            raise ConfigError(f"grid_points must be >= 1, got {self.grid_points}")
        for key, (_, flag) in _SETTINGS.items():
            choices, value = (flag or {}).get("choices"), getattr(self, key)
            if choices is not None and value not in choices:
                raise ConfigError(f"{key} must be one of {choices}, got {value!r}")

    @property
    def params(self) -> PhysicalParams:
        return PhysicalParams(delta_e=self.delta_e, g=self.g)

    @property
    def timescales(self) -> Timescales:
        return Timescales(self.n_bar, self.g)

    def prep(self) -> CoherentPrep:
        from .hilbert import CoherentPrep

        alpha = math.sqrt(self.n_bar) * complex(math.cos(self.phi), math.sin(self.phi))
        return CoherentPrep(alpha, self.cutoff)

    def protocol_config(self) -> ProtocolConfig:
        from .protocol import ProtocolConfig

        if self.pe0 is not None:
            initial = {"initial_pe": self.pe0}
        else:
            initial = {"initial_beta": 1.0 if self.initial_beta is None else self.initial_beta}
        return ProtocolConfig(prep=self.prep(), interaction_time=self.time,
                              physical=self.params, pulse_mode=self.pulse_mode, **initial)


_UNITS_COMMENT = "# units: temperatures in delta_e/k_B, times in 1/g"


def _plain_value(value):
    """A cell with +/-inf as tokens; NaN is refused.

    CSV and JSON output both go through here. Every command hands it a
    Python ``float``, ``bool``, ``str`` or ``None``.
    """
    if isinstance(value, float):
        if math.isnan(value):
            raise ValueError("refusing to emit NaN")
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
    return value


def _fmt_cell(value) -> str:
    value = _plain_value(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return "" if value is None else str(value)


def _render_csv(fieldnames: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    buf.write(_UNITS_COMMENT + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_fmt_cell(row.get(name)) for name in fieldnames])
    return buf.getvalue()


def _render_json(fieldnames: list[str], rows: list[dict]) -> str:
    payload = {
        "units": {"temperature": "delta_e/k_B", "time": "1/g"},
        "rows": [{k: _plain_value(row.get(k)) for k in fieldnames} for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def _write_output(spec: RunSpec, fieldnames: list[str], rows: list[dict]) -> None:
    text = (_render_csv(fieldnames, rows) if spec.format == "csv"
            else _render_json(fieldnames, rows))
    if spec.out is None or spec.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(spec.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {spec.out}: {exc}") from exc


_RUN_FIELDS = [
    "t", "pe", "temperature", "inverted", "collapse_completed",
    "within_half_revival", "pulse_residual_ok", "pulse_residual",
    "pre_x", "pre_y", "pre_z", "post_x", "post_y", "post_z",
]


def _protocol_row(point: SweepPoint) -> dict:
    """The ``run`` fields of ``point`` and an empty ``error``.

    A failed point's row has only ``t`` and its message.
    """
    from .hilbert import bloch_components

    if not point.ok:
        return {"t": point.t, "error": point.error}
    result = point.result
    reading, flags = result.reading, result.validity
    pre, post = result.rho_pre_pulse, result.rho_post_pulse
    return dict(zip(_RUN_FIELDS + ["error"], (
        point.t, reading.pe, reading.temperature, reading.inverted,
        flags.collapse_completed, flags.within_half_revival, flags.pulse_residual_ok,
        result.pulse_residual, *bloch_components(pre.rho11, pre.rho01),
        *bloch_components(post.rho11, post.rho01), ""), strict=True))


def cmd_run(spec: RunSpec) -> int:
    from .protocol import SweepPoint, run_protocol

    point = SweepPoint(spec.time, run_protocol(spec.protocol_config()))
    _write_output(spec, _RUN_FIELDS, [_protocol_row(point)])
    return 0


def cmd_fig_rho01(spec: RunSpec) -> int:
    import numpy as np

    from .dynamics import FieldStep
    from .hilbert import AtomDensity

    points = spec.grid_points if spec.grid_points is not None else 400
    grid = np.linspace(0.0, 0.6 * spec.timescales.tau_revival, points)
    levels = _INITIAL_LEVELS[spec.initial_level]
    prep = spec.prep()
    field_step = FieldStep(prep, spec.params)
    atoms = [(AtomDensity(pe), suffix) for pe, suffix in levels]
    fieldnames = ["t"]
    for _, suffix in levels:
        fieldnames += [f"re_num{suffix}", f"im_num{suffix}"]
    fieldnames += ["re_analytic", "im_analytic"]
    rows = [{"t": float(t)} for t in grid]
    for atom, suffix in atoms:
        for row, rho in zip(rows, field_step.evolve_grid(atom, grid)):
            if isinstance(rho, ValueError):
                raise rho
            row[f"re_num{suffix}"] = rho.rho01.real
            row[f"im_num{suffix}"] = rho.rho01.imag
    for row in rows:
        ana = rho01_analytic(row["t"], spec.n_bar, spec.params, spec.phi)
        row["re_analytic"] = ana.real
        row["im_analytic"] = ana.imag
    _write_output(spec, fieldnames, rows)
    return 0


def _n_bar_grid(spec: RunSpec) -> list[float]:
    """``[n_bar]`` when given, else the default log-spaced grid on ``[10, 1000]``.

    The exponents follow ``np.linspace(1.0, 3.0, points)``'s arithmetic,
    ``1.0 + i * step`` with the last one 3.0, so on the default 20 points
    ``10.0 ** y`` has the bits of ``np.logspace(1.0, 3.0, 20)``; on some other
    sizes a point differs by one ulp, numpy's ``power`` not being libm's.
    """
    if spec.n_bar_given:
        return [spec.n_bar]
    points = spec.grid_points if spec.grid_points is not None else 20
    if points == 1:
        return [10.0]
    step = 2.0 / (points - 1)
    return [10.0 ** (1.0 + i * step) for i in range(points - 1)] + [10.0 ** 3.0]


def cmd_fig_tmin(spec: RunSpec) -> int:
    rows = [
        {"n_bar": n, "t_min": t_min(n, spec.delta_e).temperature}
        for n in _n_bar_grid(spec)
    ]
    _write_output(spec, ["n_bar", "t_min"], rows)
    return 0


def cmd_fig_tmax(spec: RunSpec) -> int:
    rows = []
    for n in _n_bar_grid(spec):
        rows.append({
            "n_bar": n,
            "t_max_numeric": t_max(n, spec.delta_e, "numeric", g=spec.g).temperature,
            "t_max_closed_form": t_max(n, spec.delta_e, "closed_form",
                                       g=spec.g).temperature,
        })
    _write_output(spec, ["n_bar", "t_max_numeric", "t_max_closed_form"], rows)
    return 0


def cmd_sweep(spec: RunSpec) -> int:
    import numpy as np

    from .protocol import sweep_interaction_time

    points = spec.grid_points if spec.grid_points is not None else 200
    grid = np.linspace(0.0, spec.timescales.half_revival, points)
    sweep = sweep_interaction_time(spec.protocol_config(), grid)
    _write_output(spec, _RUN_FIELDS + ["error"], [_protocol_row(point) for point in sweep])
    return 0


def cmd_validate(spec: RunSpec) -> int:
    from .validation import run_all_checks  # the battery loads only for validate

    report = run_all_checks()
    to_file = spec.out is not None and spec.out != "-"
    # On stdout the JSON report replaces the text one; CSV goes only to a file.
    if to_file or spec.format == "csv":
        print(report.format_report())
    if to_file or spec.format == "json":
        rows = [
            {"name": c.name, "passed": c.passed, "duration": c.duration,
             "detail": c.detail}
            for c in report.checks
        ]
        _write_output(spec, ["name", "passed", "duration", "detail"], rows)
    return 0 if report.all_passed else 1


_COMMANDS = {
    "run": (cmd_run, "run the protocol once and emit one record"),
    "fig-rho01": (cmd_fig_rho01, "coherence vs time: exact and closed form"),
    "fig-tmin": (cmd_fig_tmin, "floor temperature vs mean photon number"),
    "fig-tmax": (cmd_fig_tmax, "ceiling temperature vs mean photon number (both variants)"),
    "sweep": (cmd_sweep, "sweep the interaction time over a grid"),
    "validate": (cmd_validate, "run the full self-validation battery"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavitytherm",
        description=(
            "Temperature control of a two-level atom through timed cavity "
            "interaction and a phase-locked half pulse."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        for key, (kind, flag) in _SETTINGS.items():
            if flag is not None:
                p.add_argument("--" + key.replace("_", "-"), type=kind, **flag)
    return parser


def _build_spec(args: argparse.Namespace) -> RunSpec:
    settings = parse_config_file(args.config) if args.config else {}
    for key in _SETTINGS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value
    return RunSpec(command=args.command, n_bar_given="n_bar" in settings, **settings)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    spec = None  # still None if building it runs out of memory
    try:
        spec = _build_spec(args)
        return _COMMANDS[spec.command][0](spec)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        at = "" if spec is None else f" at n_bar={spec.n_bar}"
        print(f"numeric failure: out of memory{at}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
