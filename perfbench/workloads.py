"""The three workloads: their inputs, their timed operation and their checks.

Every workload is closed-loop with one client: the next operation starts
when the previous one has returned (for ``cli_cold``, when the child has
exited). Inputs come from ``numpy.random.default_rng(seed)``, drawn fresh
for every operation, so one seed always gives the same input sequence.
Outputs are checked against ``reference`` (and, for the figure commands,
against closed forms evaluated here), never against the package itself.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TOL = 1e-9
PE_SLACK = 1e-12
DET_SLACK = 1e-12
DELTA_E = 1.0


def import_program():
    """Import ``cavitytherm`` from this checkout's ``src`` and nowhere else."""
    package = SRC / "cavitytherm"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no cavitytherm sources at {package}")
    sys.path.insert(0, str(SRC))
    import cavitytherm
    from cavitytherm import cli, dynamics, protocol, validation  # noqa: F401
    if Path(cavitytherm.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: cavitytherm imported from {cavitytherm.__file__}")
    return cavitytherm


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@dataclass
class Tally:
    """Checked sub-operations; ``unexpected`` counts failures not known beforehand."""

    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    examples: list = field(default_factory=list)

    def record(self, error: str | None, known_fault: bool = False) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if not known_fault:
                self.unexpected += 1
                if len(self.examples) < 5:
                    self.examples.append(error)


def point_error(t: float, alpha: complex, pe0: float, pe: float, temperature: float,
                rho11: float, rho01: complex) -> str | None:
    """Compare one protocol point with the reference; ``None`` when it agrees.

    ``pe`` and the pre-pulse state must match to 1e-9. The temperature must
    match the reference temperature to within what a 1e-9 change of ``pe``
    allows, checked on ``beta = 1/T``, whose sensitivity is
    ``1 / (pe (1 - pe))``. Comparisons are written so NaN fails them.
    """
    ref11, ref01 = reference.mixed_state(t, alpha, pe0)
    ref_pe = reference.reading(ref11, ref01)
    if not abs(pe - ref_pe) <= TOL:
        return f"t={t!r}: pe {pe!r} vs reference {ref_pe!r}"
    if not pe <= 0.5 + PE_SLACK:
        return f"t={t!r}: pe {pe!r} above 1/2"
    if not (abs(rho11 - ref11) <= TOL and abs(rho01 - ref01) <= TOL):
        return f"t={t!r}: pre-pulse state ({rho11!r}, {rho01!r}) vs reference ({ref11!r}, {ref01!r})"
    if not rho11 * (1.0 - rho11) - abs(rho01) ** 2 >= -DET_SLACK:
        return f"t={t!r}: pre-pulse determinant below -1e-12"
    beta = math.inf if temperature == 0.0 else 1.0 / temperature
    ref_beta = reference.inverse_temperature(ref_pe, DELTA_E)
    if ref_beta == math.inf:
        return None if beta == math.inf else f"t={t!r}: temperature {temperature!r} vs 0"
    if not abs(beta - ref_beta) <= TOL / (ref_pe * (1.0 - ref_pe)):
        return f"t={t!r}: temperature {temperature!r} vs reference {1.0 / ref_beta!r}"
    return None


def log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def coherent_alpha(n_bar: float, phi: float) -> complex:
    """The field amplitude the CLI builds from ``--n-bar`` and ``--phi``."""
    return math.sqrt(n_bar) * complex(math.cos(phi), math.sin(phi))


class InProcess:
    """Base for workloads that call the package inside this process."""

    round_size = 1
    spawns_child = False

    def __init__(self, traced: bool) -> None:
        self.pkg = import_program()

    def peak_rss_mb(self, outputs) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def peak_alloc_bytes(self, inp) -> int:
        tracemalloc.start()
        try:
            self.run(inp)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def run_in_process(self, inp):
        return self.run(inp)

    def warm_up(self, rng) -> None:
        self.run(self.make_input(rng, 0))


class SweepDim(InProcess):
    """200-point sweep over [0, tau_r/2] at n_bar = 36; seed draws phi and beta."""

    n_bar = 36.0
    grid_points = 200
    round_size = 2
    modes = ("explicit_unitary", "diagonalize")

    def make_input(self, rng, index: int):
        protocol = self.pkg.protocol
        alpha = coherent_alpha(self.n_bar, rng.uniform(0.0, 2.0 * math.pi))
        beta = log_uniform(rng, 0.1, 10.0)
        config = protocol.ProtocolConfig(
            prep=self.pkg.CoherentPrep(alpha), interaction_time=0.0,
            initial_beta=beta, pulse_mode=self.modes[index % 2])
        grid = np.linspace(0.0, config.timescales().half_revival, self.grid_points)
        return config, grid, reference.thermal_pe(beta, DELTA_E)

    def run(self, inp):
        config, grid, _ = inp
        return self.pkg.protocol.sweep_interaction_time(config, grid)

    def check(self, inp, out, tally: Tally) -> None:
        config, grid, pe0 = inp
        if len(out) != len(grid):
            tally.record(f"sweep returned {len(out)} points for {len(grid)}")
            return
        for point in out:
            tally.record(protocol_point_error(point, config.prep.alpha, pe0))


def protocol_point_error(point, alpha: complex, pe0: float) -> str | None:
    if not point.ok:
        return f"t={point.t!r}: {point.error}"
    res = point.result
    return point_error(point.t, alpha, pe0, res.reading.pe, res.reading.temperature,
                       res.rho_pre_pulse.rho11, res.rho_pre_pulse.rho01)


KNOWN_FAULT = "rho11 must lie in [0, 1]"


def is_known_fault(exc: Exception) -> bool:
    """The ``AtomDensity`` rejection of the over-normalised n_bar = 1e4 field."""
    return isinstance(exc, ValueError) and str(exc).startswith(KNOWN_FAULT)


class SweepBright(InProcess):
    """20-point grid at n_bar = 1e4: protocol sweep plus the both-level coherence curve.

    The field is the CLI's ``--n-bar 10000`` (phi = 0). Its truncated
    amplitude vector has norm^2 - 1 = 1.4e-11, so the |e> coherence at t = 0
    raises in ``partial_trace_field`` on every operation: one known failure
    per operation. The seed draws beta and the 19 times after t = 0, in
    (0, tau_r/2].
    """

    n_bar = 1e4
    drawn_points = 19

    def __init__(self, traced: bool) -> None:
        super().__init__(traced)
        self.alpha = coherent_alpha(self.n_bar, 0.0)
        self.prep = self.pkg.CoherentPrep(self.alpha)
        self.params = self.pkg.PhysicalParams()

    def make_input(self, rng, index: int):
        protocol = self.pkg.protocol
        beta = log_uniform(rng, 0.1, 10.0)
        config = protocol.ProtocolConfig(prep=self.prep, interaction_time=0.0,
                                         initial_beta=beta)
        half = config.timescales().half_revival
        drawn = np.sort(half - rng.uniform(0.0, half, self.drawn_points))
        return config, np.concatenate([[0.0], drawn]), reference.thermal_pe(beta, DELTA_E)

    def run(self, inp):
        config, grid, _ = inp
        dynamics = self.pkg.dynamics
        points = self.pkg.protocol.sweep_interaction_time(config, grid)
        curve = []
        for t in grid:
            for level in (self.pkg.LEVEL_E, self.pkg.LEVEL_G):
                try:
                    curve.append(dynamics.coherence_from_propagator(
                        float(t), self.alpha, self.params, level, self.prep.n_max))
                except (ValueError, ArithmeticError) as exc:
                    curve.append(exc)
        return points, curve

    def check(self, inp, out, tally: Tally) -> None:
        config, grid, pe0 = inp
        points, curve = out
        for point in points:
            tally.record(protocol_point_error(point, self.alpha, pe0))
        values = iter(curve)
        for t in grid:
            for level in ("e", "g"):
                value = next(values)
                if isinstance(value, Exception):
                    known = level == "e" and t == 0.0 and is_known_fault(value)
                    tally.record(f"t={t!r} |{level}>: {value}", known_fault=known)
                    continue
                ref = reference.level_state(float(t), self.alpha, level)[1]
                tally.record(None if abs(value - ref) <= TOL else
                             f"t={t!r} |{level}>: coherence {value!r} vs reference {ref!r}")


@dataclass
class ChildResult:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int | None


def parse_csv(text: str) -> list[dict]:
    """Rows of the CLI's CSV (line 1 is the units comment, line 2 the header)."""
    lines = text.strip().splitlines()
    if len(lines) < 2 or not lines[0].startswith("#"):
        raise ValueError("not the CLI's CSV layout")
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def lambertw(x: float) -> float:
    # Imported here: the cli_cold benchmark process loads nothing else of scipy.
    from scipy.special import lambertw as scipy_lambertw
    return float(scipy_lambertw(x).real)


class CliCold(InProcess):
    """One fresh ``python -m cavitytherm`` child per operation, four commands in turn.

    ``run`` and ``sweep`` take a seed-drawn ``--phi``. In the traced run the
    same commands go through ``cli.main`` inside this process.
    """

    round_size = 4
    spawns_child = True
    n_bar = 36.0
    sweep_points = 20
    fig_n_bar = 46.0

    def __init__(self, traced: bool) -> None:
        # Untimed runs import the package only in the children.
        if traced:
            self.pkg = import_program()
        elif not (SRC / "cavitytherm" / "__init__.py").is_file():
            raise SystemExit(f"error: no cavitytherm sources at {SRC / 'cavitytherm'}")
        self.env = child_env()

    def make_input(self, rng, index: int) -> list[str]:
        kind = index % 4
        if kind == 0:
            return ["run", "--time", "9", "--phi", repr(rng.uniform(0.0, 2.0 * math.pi))]
        if kind == 1:
            return ["fig-tmin", "--n-bar", "46"]
        if kind == 2:
            return ["fig-tmax", "--n-bar", "46"]
        return ["sweep", "--grid-points", str(self.sweep_points),
                "--phi", repr(rng.uniform(0.0, 2.0 * math.pi))]

    def run(self, argv: list[str]) -> ChildResult:
        with subprocess.Popen([sys.executable, "-m", "cavitytherm", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              cwd=ROOT, env=self.env, text=True) as proc:
            out = proc.stdout.read()
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildResult(proc.returncode, out, err, usage.ru_maxrss)

    def run_in_process(self, argv: list[str]) -> ChildResult:
        cli = self.pkg.cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return ChildResult(code, buf.getvalue(), "", None)

    def check(self, argv, out: ChildResult, tally: Tally) -> None:
        tally.record(cli_error(argv, out))

    def peak_rss_mb(self, outputs) -> float:
        return statistics.median(o.maxrss_kb for o in outputs if o.maxrss_kb) / 1024.0

    def peak_alloc_bytes(self, argv) -> int:
        probe = ("import runpy, sys, tracemalloc\n"
                 "sys.argv = ['cavitytherm'] + sys.argv[1:]\n"
                 "try:\n"
                 "    runpy.run_module('cavitytherm', run_name='__main__', alter_sys=True)\n"
                 "except SystemExit:\n"
                 "    pass\n"
                 "sys.stderr.write(f'peak {tracemalloc.get_traced_memory()[1]}\\n')\n")
        proc = subprocess.run([sys.executable, "-X", "tracemalloc", "-c", probe, *argv],
                              capture_output=True, text=True, cwd=ROOT, env=self.env,
                              check=False)
        return int(proc.stderr.strip().splitlines()[-1].split()[1])


def cli_error(argv: list[str], out: ChildResult) -> str | None:
    """Check one CLI call's exit code and output; ``None`` when all agree."""
    label = " ".join(argv)
    if out.code != 0:
        return f"{label}: exit {out.code}: {out.stderr.strip()[-200:]}"
    try:
        rows = parse_csv(out.stdout)
        command = argv[0]
        if command == "fig-tmin":
            p = math.pi ** 2 / (32.0 * CliCold.fig_n_bar)
            expected = DELTA_E / math.log((1.0 - p) / p)
            (row,) = rows
            got = float(row["t_min"])
            return None if abs(got - expected) <= 1e-12 * expected else (
                f"{label}: t_min {got!r} vs {expected!r}")
        if command == "fig-tmax":
            n = CliCold.fig_n_bar
            root_w = math.sqrt(lambertw(400.0 * n))
            expected = DELTA_E / math.log((4.0 * math.sqrt(n) + root_w)
                                          / (4.0 * math.sqrt(n) - root_w))
            (row,) = rows
            got = float(row["t_max_closed_form"])
            numeric = float(row["t_max_numeric"])
            if not (math.isfinite(numeric) and numeric > 0.0):
                return f"{label}: t_max_numeric {numeric!r}"
            return None if abs(got - expected) <= 1e-9 * expected else (
                f"{label}: t_max_closed_form {got!r} vs {expected!r}")
        phi = float(argv[argv.index("--phi") + 1])
        alpha = coherent_alpha(CliCold.n_bar, phi)
        pe0 = reference.thermal_pe(1.0, DELTA_E)
        if command == "run":
            times = [9.0]
        else:
            times = list(np.linspace(0.0, math.pi * math.sqrt(CliCold.n_bar),
                                     CliCold.sweep_points))
        if len(rows) != len(times):
            return f"{label}: {len(rows)} rows for {len(times)} times"
        for row, t in zip(rows, times):
            if row.get("error"):
                return f"{label}: t={t!r}: {row['error']}"
            if not abs(float(row["t"]) - t) <= 1e-12 * max(1.0, t):
                return f"{label}: t column {row['t']} vs {t!r}"
            x, y, z = (float(row[k]) for k in ("pre_x", "pre_y", "pre_z"))
            error = point_error(t, alpha, pe0, float(row["pe"]), float(row["temperature"]),
                                (1.0 + z) / 2.0, complex(x, y) / 2.0)
            if error is not None:
                return f"{label}: {error}"
        return None
    except (ValueError, KeyError, IndexError) as exc:
        return f"{label}: unreadable output: {exc!r}"


def check_battery(checks, tally: Tally) -> None:
    """Each check of a ``run_all_checks()`` report is one sub-operation."""
    for c in checks:
        tally.record(None if c.passed else f"{c.name}: {c.detail}")


WORKLOADS = {
    "sweep_dim": SweepDim,
    "sweep_bright": SweepBright,
    "cli_cold": CliCold,
}
