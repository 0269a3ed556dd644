"""Self-validation battery: report structure and verdict types."""

from __future__ import annotations

import dataclasses

import pytest

from cavitytherm import dynamics, hilbert, validation


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
