"""Tests for the RUS preparation/injection models and Clifford+T comparison."""

import math

import numpy as np
import pytest

from repro.rus import (
    ComparisonResult,
    InjectionModel,
    InjectionStrategy,
    PreparationModel,
    RzCostModel,
    TFactoryModel,
    compare_rz_vs_t,
    expected_injections,
)


class TestPreparationModel:
    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            PreparationModel(distance=4, physical_error_rate=1e-4)
        with pytest.raises(ValueError):
            PreparationModel(distance=7, physical_error_rate=0.9)

    def test_subsystem_count(self):
        model = PreparationModel(7, 1e-4)
        assert model.num_subsystem_codes == 24

    def test_probabilities_in_range(self):
        model = PreparationModel(7, 1e-3)
        for value in (model.subsystem_success_probability,
                      model.first_round_success_probability,
                      model.expansion_success_probability,
                      model.attempt_success_probability):
            assert 0.0 < value <= 1.0

    def test_expected_cycles_decrease_with_distance(self):
        """Figure 16 (left): larger d -> fewer lattice-surgery cycles."""
        cycles = [PreparationModel(d, 1e-4).expected_cycles()
                  for d in (5, 7, 9, 11, 13)]
        assert cycles == sorted(cycles, reverse=True)

    def test_expected_attempts_increase_with_distance(self):
        """Figure 16 (right): larger d -> more post-selection attempts."""
        attempts = [PreparationModel(d, 1e-3).expected_attempts()
                    for d in (5, 7, 9, 11, 13)]
        assert attempts == sorted(attempts)

    def test_expected_cycles_decrease_with_lower_error_rate(self):
        worse = PreparationModel(7, 1e-3).expected_cycles()
        better = PreparationModel(7, 1e-5).expected_cycles()
        assert better < worse

    def test_worst_corner_near_paper_value(self):
        """Appendix A.2 uses ~2.2 cycles for the worst-case preparation."""
        worst = PreparationModel(5, 1e-3).expected_cycles()
        assert 1.5 < worst < 3.5

    def test_parallel_preparation_is_faster(self):
        model = PreparationModel(7, 1e-3)
        assert model.expected_cycles_parallel(3) < model.expected_cycles()
        with pytest.raises(ValueError):
            model.expected_cycles_parallel(0)

    def test_sampling_statistics_match_expectation(self):
        model = PreparationModel(7, 1e-3)
        rng = np.random.default_rng(0)
        samples = [model.sample_attempts(rng) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(model.expected_attempts(),
                                                 rel=0.1)

    def test_sample_cycles_at_least_one(self):
        model = PreparationModel(13, 1e-5)
        rng = np.random.default_rng(1)
        assert all(model.sample_cycles(rng) >= 1 for _ in range(100))


class TestInjection:
    def test_strategy_table1(self):
        assert InjectionStrategy.ZZ.exposed_edge == "Z"
        assert InjectionStrategy.CNOT.exposed_edge == "X"
        assert InjectionStrategy.ZZ.ancillas_required == 1
        assert InjectionStrategy.CNOT.ancillas_required == 2
        assert InjectionStrategy.ZZ.cycles == 1
        assert InjectionStrategy.CNOT.cycles == 2

    def test_expected_injections_generic_angle(self):
        """Equation 1: the expectation is exactly 2 for generic angles."""
        assert expected_injections() == pytest.approx(2.0)
        assert expected_injections(0.3) == pytest.approx(2.0, abs=1e-6)

    def test_expected_injections_truncated_for_t_gate(self):
        # T gate: after one doubling the correction (S) is Clifford, so the
        # chain always stops after exactly one injection.
        value = expected_injections(math.pi / 4)
        assert value == pytest.approx(1.0)

    def test_expected_injections_truncated_for_sqrt_t_gate(self):
        value = expected_injections(math.pi / 8)
        assert value == pytest.approx(1 * 0.5 + 2 * 0.25 + 2 * 0.25)

    def test_expected_injections_zero_for_clifford(self):
        assert expected_injections(math.pi / 2) == 0.0

    def test_sample_count_statistics(self):
        model = InjectionModel()
        rng = np.random.default_rng(0)
        samples = [model.sample_injection_count(rng) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(2.0, rel=0.1)

    def test_sample_count_truncates_for_t_angle(self):
        model = InjectionModel()
        rng = np.random.default_rng(0)
        samples = [model.sample_injection_count(rng, theta=math.pi / 4)
                   for _ in range(500)]
        assert max(samples) <= 2

    def test_sample_count_zero_for_clifford(self):
        model = InjectionModel()
        rng = np.random.default_rng(0)
        assert model.sample_injection_count(rng, theta=math.pi) == 0

    def test_general_success_probability_expectation(self):
        model = InjectionModel(success_probability=1.0)
        assert model.expected_injection_count() == pytest.approx(1.0)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            InjectionModel(success_probability=0.0)


class TestCliffordTComparison:
    def test_rz_cost_model_matches_appendix_arithmetic(self):
        prep = PreparationModel(5, 1e-3)
        model = RzCostModel(prep, InjectionModel(InjectionStrategy.CNOT))
        expected = 2 * (prep.expected_cycles() + 2)
        assert model.expected_cycles() == pytest.approx(expected)

    def test_t_factory_range(self):
        best, worst = TFactoryModel().rz_cycles_range()
        assert best == 200
        assert worst == 1300

    def test_overhead_range_matches_paper(self):
        """Appendix A.2: Clifford+T is 20x-150x more expensive per rotation."""
        result = compare_rz_vs_t()
        assert isinstance(result, ComparisonResult)
        assert 10 <= result.overhead_best <= 40
        assert 100 <= result.overhead_worst <= 250
        assert result.overhead_worst > result.overhead_best
