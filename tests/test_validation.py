"""Self-validation battery: report structure and verdict types."""

from __future__ import annotations

import dataclasses

import pytest

from cavitytherm import dynamics, hilbert, protocol, validation


def test_verdicts_are_python_bools():
    report = validation.run_all_checks(include_slow=False)
    assert report.checks
    for check in report.checks:
        assert type(check.passed) is bool, (
            f"{check.name} returned {type(check.passed).__name__}")


@pytest.mark.parametrize("fault", ["half_coupling", "backwards_in_time"])
def test_oracle_check_fails_on_a_faulty_propagator(monkeypatch, fault):
    true_propagate = dynamics.propagate

    def faulty(state, t):
        if fault == "backwards_in_time":
            return true_propagate(state, -t)
        halved = dataclasses.replace(state.params, g=0.5 * state.params.g)
        return true_propagate(hilbert.JointPureState(state.amplitudes, halved), t)

    monkeypatch.setattr(dynamics, "propagate", faulty)
    passed, detail = validation.propagator_vs_ode()
    assert not passed, detail


def test_coherence_accuracy_detail_is_the_same_on_every_run():
    first, second = (validation.closed_form_coherence_accuracy() for _ in range(2))
    assert first == second
    assert first[0] and first[1].endswith("within the 2 s budget")


def test_coherence_accuracy_prints_its_seconds_only_over_budget(monkeypatch):
    clock = iter([100.0, 102.5])

    class SlowClock:
        @staticmethod
        def perf_counter() -> float:
            return next(clock)

    monkeypatch.setattr(validation, "time", SlowClock)
    passed, detail = validation.closed_form_coherence_accuracy()
    assert not passed
    assert detail.endswith("2.50 s (budget 2 s)")


# The checks that read a grid of kernel states, then those that read a sweep.
KERNEL_GRID_CHECKS = ("evolved_states_are_densities", "closed_form_coherence_accuracy",
                      "population_settles_to_half")
SWEEP_CHECKS = ("reading_pe_below_half", "reading_matches_analytic_floor",
                "sweep_monotone_after_collapse")


@pytest.mark.parametrize("fault", ["kernel_state", "readout"])
def test_a_failed_grid_entry_is_reported_as_its_own_error(monkeypatch, fault):
    if fault == "kernel_state":
        series = dynamics.FieldStep._series

        def planted(self, p, run_times):
            rho11, envelope = series(self, p, run_times)
            rho11[-1] = 1.5
            return rho11, envelope

        monkeypatch.setattr(dynamics.FieldStep, "_series", planted)
        message, names = "rho11 must lie in [0, 1], got 1.5", KERNEL_GRID_CHECKS + SWEEP_CHECKS
    else:
        def planted(pe, delta_e=1.0):
            raise ValueError("planted readout fault")

        monkeypatch.setattr(protocol, "temperature_from_pe", planted)
        message, names = "planted readout fault", SWEEP_CHECKS
    checks = {c.name: c for c in validation.run_all_checks(include_slow=False).checks}
    for name in names:
        assert not checks[name].passed
        assert checks[name].detail.startswith("raised ValueError: "), checks[name].detail
        assert checks[name].detail.endswith(message), checks[name].detail


def test_determinism_check_compares_the_validity_flags(monkeypatch):
    run = protocol.run_protocol
    results = []

    def second_run_flags_differ(config):
        result = run(config)
        if results:  # the second run: the same states and reading, other flags
            flags = result.validity
            result = protocol.ProtocolResult(
                result.rho_pre_pulse, result.rho_post_pulse, result.reading,
                protocol.ValidityFlags(flags.collapse_completed, flags.within_half_revival,
                                       not flags.pulse_residual_ok))
        results.append(result)
        return result

    assert validation.pipeline_determinism()[0]
    monkeypatch.setattr(protocol, "run_protocol", second_run_flags_differ)
    passed, detail = validation.pipeline_determinism()
    assert len(results) == 2
    assert results[0].rho_post_pulse == results[1].rho_post_pulse
    assert not passed, detail
