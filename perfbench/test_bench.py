"""Self-test of the benchmark: its reference and its checks.

Run from the repository root with ``python3 -m pytest perfbench/test_bench.py``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import reference
from run import importtime_ms
from workloads import (ROOT, ChildResult, CliCold, SweepBright, SweepDim, Tally,
                       check_battery, cli_error)


def dense_jc_reduced(level: str, alpha: complex, t: float, g: float, omega: float,
                     n_max: int = 60) -> tuple[float, complex]:
    """Reduced state from expm of a Jaynes-Cummings matrix built here.

    Basis: index ``n`` is ``|g,n>``, index ``n_max + 1 + n`` is ``|e,n>``.
    """
    dim = n_max + 1
    h = np.zeros((2 * dim, 2 * dim))
    for n in range(dim):
        h[n, n] = omega * n
        h[dim + n, dim + n] = omega * (n + 1)
    for n in range(dim - 1):
        h[n + 1, dim + n] = h[dim + n, n + 1] = g * math.sqrt(n + 1)
    amps = np.array([alpha ** n / math.sqrt(math.factorial(n)) for n in range(dim)],
                    dtype=complex) * math.exp(-abs(alpha) ** 2 / 2)
    psi = np.zeros(2 * dim, dtype=complex)
    start = dim if level == "e" else 0
    psi[start:start + dim] = amps
    psi = expm(-1j * h * t) @ psi
    psi_g, psi_e = psi[:dim], psi[dim:]
    return float(np.sum(abs(psi_e) ** 2)), complex(np.sum(psi_g * np.conj(psi_e)))


@pytest.mark.parametrize("level", ["e", "g"])
@pytest.mark.parametrize("t", [0.0, 0.7, 3.1, 12.5])
def test_reference_matches_dense_expm(level, t):
    alpha, g, omega = 2.0 * complex(math.cos(0.4), math.sin(0.4)), 1.3, 0.8
    want11, want01 = dense_jc_reduced(level, alpha, t, g, omega)
    got11, got01 = reference.level_state(t, alpha, level, g, omega)
    assert abs(got11 - want11) < 1e-10
    assert abs(got01 - want01) < 1e-10


def test_reading_is_smallest_eigenvalue():
    rho11, rho01 = reference.mixed_state(5.0, 6.0, 0.3)
    matrix = np.array([[1 - rho11, rho01], [np.conj(rho01), rho11]])
    assert reference.reading(rho11, rho01) == pytest.approx(np.linalg.eigvalsh(matrix)[0],
                                                           abs=1e-15)


def test_dim_check_counts_a_shifted_reading():
    workload = SweepDim(traced=False)
    inp = workload.make_input(np.random.default_rng(3), 0)
    points = workload.run(inp)
    clean = Tally()
    workload.check(inp, points, clean)
    assert (clean.attempted, clean.failed) == (200, 0)

    bad = points[120]
    reading = dataclasses.replace(bad.result.reading, pe=bad.result.reading.pe + 1e-8)
    points[120] = dataclasses.replace(bad, result=dataclasses.replace(bad.result, reading=reading))
    tally = Tally()
    workload.check(inp, points, tally)
    assert (tally.attempted, tally.failed, tally.unexpected) == (200, 1, 1)


def test_bright_fails_once_per_operation_on_the_known_fault():
    workload = SweepBright(traced=False)
    inp = workload.make_input(np.random.default_rng(5), 0)
    tally = Tally()
    workload.check(inp, workload.run(inp), tally)
    assert (tally.attempted, tally.failed, tally.unexpected) == (60, 1, 0)


def test_bright_counts_another_failure_at_the_known_point():
    workload = SweepBright(traced=False)
    inp = workload.make_input(np.random.default_rng(5), 0)
    points, curve = workload.run(inp)
    curve[0] = ArithmeticError("overflow in propagate")
    tally = Tally()
    workload.check(inp, (points, curve), tally)
    assert (tally.attempted, tally.failed, tally.unexpected) == (60, 1, 1)


def in_process_cli(argv: list[str]) -> ChildResult:
    workload = CliCold(traced=True)
    return workload.run_in_process(argv)


@pytest.mark.parametrize("argv", [
    ["run", "--time", "9", "--phi", "1.25"],
    ["fig-tmin", "--n-bar", "46"],
    ["fig-tmax", "--n-bar", "46"],
    ["sweep", "--grid-points", "20", "--phi", "4.5"],
])
def test_cli_checks_pass_on_real_output(argv):
    assert cli_error(argv, in_process_cli(argv)) is None


def test_cli_check_counts_a_nan_cell():
    argv = ["sweep", "--grid-points", "20", "--phi", "4.5"]
    out = in_process_cli(argv)
    lines = out.stdout.splitlines()
    header = lines[1].split(",")
    cells = lines[5].split(",")
    cells[header.index("pe")] = "nan"
    lines[5] = ",".join(cells)
    tally = Tally()
    CliCold(traced=False).check(argv, dataclasses.replace(out, stdout="\n".join(lines)), tally)
    assert (tally.attempted, tally.failed, tally.unexpected) == (1, 1, 1)


def test_cli_check_counts_exit_code_3():
    tally = Tally()
    failed_child = ChildResult(3, "", "numeric failure: rho11 must lie in [0, 1]", 50_000)
    CliCold(traced=False).check(["fig-tmax", "--n-bar", "46"], failed_child, tally)
    assert (tally.failed, tally.unexpected) == (1, 1)


def test_battery_check_counts_a_failed_check():
    from cavitytherm.validation import CheckResult, ValidationReport
    report = ValidationReport(checks=(CheckResult("a", True, ""), CheckResult("b", False, "x")),
                              total_duration=0.0)
    tally = Tally()
    check_battery(report.checks, tally)
    assert (tally.attempted, tally.failed, tally.unexpected) == (2, 1, 1)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep_dim",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_import_log_without_scipy_special_or_validation():
    log = ("import time: self [us] | cumulative | imported package\n"
           "import time:       412 |       5120 |   numpy\n"
           "import time:       230 |      80311 | cavitytherm\n"
           "import time:        95 |      81002 | cavitytherm.cli\n")
    assert importtime_ms(log, "cavitytherm.cli") == 81.002
    assert importtime_ms(log, "scipy.special") == 0.0
    assert importtime_ms(log, "cavitytherm.validation") == 0.0
