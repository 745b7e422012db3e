"""Tests for the project-selection (max-weight closure) solver."""

import itertools

import numpy as np
import pytest

from repro.errors import OptimizerError
from repro.optimizer.project_selection import (
    SINK,
    SOURCE,
    ProjectSelectionInstance,
    solve_project_selection,
)


def brute_force(instance: ProjectSelectionInstance):
    """Enumerate all closed subsets; return the best (selection, profit)."""
    items = list(instance.profits)
    best_profit, best_set = 0.0, set()
    for size in range(len(items) + 1):
        for subset in itertools.combinations(items, size):
            chosen = set(subset)
            closed = all(requirement in chosen for item, requirement in instance.prerequisites if item in chosen)
            if not closed:
                continue
            profit = sum(instance.profits[item] for item in chosen)
            if profit > best_profit:
                best_profit, best_set = profit, chosen
    return best_set, best_profit


class TestSmallInstances:
    def test_single_profitable_item(self):
        instance = ProjectSelectionInstance()
        instance.add_item("a", 5.0)
        solution = solve_project_selection(instance)
        assert solution.selected == {"a"} and solution.profit == 5.0

    def test_single_costly_item_not_selected(self):
        instance = ProjectSelectionInstance()
        instance.add_item("a", -5.0)
        solution = solve_project_selection(instance)
        assert solution.selected == set() and solution.profit == 0.0

    def test_profitable_item_with_costly_prerequisite(self):
        instance = ProjectSelectionInstance()
        instance.add_item("project", 10.0)
        instance.add_item("equipment", -4.0)
        instance.add_prerequisite("project", "equipment")
        solution = solve_project_selection(instance)
        assert solution.selected == {"project", "equipment"}
        assert solution.profit == pytest.approx(6.0)

    def test_prerequisite_too_expensive(self):
        instance = ProjectSelectionInstance()
        instance.add_item("project", 3.0)
        instance.add_item("equipment", -10.0)
        instance.add_prerequisite("project", "equipment")
        solution = solve_project_selection(instance)
        assert solution.selected == set()
        assert solution.profit == 0.0

    def test_shared_prerequisite_amortized(self):
        instance = ProjectSelectionInstance()
        instance.add_item("p1", 6.0)
        instance.add_item("p2", 6.0)
        instance.add_item("shared", -8.0)
        instance.add_prerequisite("p1", "shared")
        instance.add_prerequisite("p2", "shared")
        solution = solve_project_selection(instance)
        assert solution.selected == {"p1", "p2", "shared"}
        assert solution.profit == pytest.approx(4.0)

    def test_chain_of_prerequisites(self):
        instance = ProjectSelectionInstance()
        instance.add_item("top", 10.0)
        instance.add_item("mid", -3.0)
        instance.add_item("base", -3.0)
        instance.add_prerequisite("top", "mid")
        instance.add_prerequisite("mid", "base")
        solution = solve_project_selection(instance)
        assert solution.selected == {"top", "mid", "base"}

    def test_duplicate_item_rejected(self):
        instance = ProjectSelectionInstance()
        instance.add_item("a", 1.0)
        with pytest.raises(OptimizerError):
            instance.add_item("a", 2.0)

    def test_unknown_prerequisite_rejected(self):
        instance = ProjectSelectionInstance()
        instance.add_item("a", 1.0)
        instance.add_prerequisite("a", "ghost")
        with pytest.raises(OptimizerError):
            solve_project_selection(instance)

    def test_selection_is_closed_under_prerequisites(self):
        instance = ProjectSelectionInstance()
        instance.add_item("a", 2.0)
        instance.add_item("b", -1.0)
        instance.add_item("c", -0.5)
        instance.add_prerequisite("a", "b")
        instance.add_prerequisite("b", "c")
        solution = solve_project_selection(instance)
        if "a" in solution.selected:
            assert {"b", "c"} <= solution.selected


def random_instance(seed, n_items=8):
    """Measured-looking (non-grid) profits over random acyclic prerequisites."""
    rng = np.random.default_rng(seed)
    instance = ProjectSelectionInstance()
    for index in range(n_items):
        instance.add_item(index, float(rng.uniform(-10.0, 10.0)))
    for item in range(1, n_items):
        for requirement in range(item):
            if rng.random() < 0.3:
                instance.add_prerequisite(item, requirement)
    return instance


class TestCutCertificate:
    @pytest.mark.parametrize("seed", range(5))
    def test_cut_edges_account_for_every_forgone_and_paid_profit(self, seed):
        """A `source → item` cut edge is exactly a positive item left out; an
        `item → sink` edge exactly a negative item taken; together they sum
        to the cut value, and profit is what the cut leaves of the positives."""
        instance = random_instance(seed)
        solution = solve_project_selection(instance)
        profits = instance.profits
        forgone = {item for item, profit in profits.items() if profit > 0 and item not in solution.selected}
        paid = {item for item, profit in profits.items() if profit < 0 and item in solution.selected}
        assert {target for source, target, _ in solution.cut_edges if source == SOURCE} == forgone
        assert {source for source, target, _ in solution.cut_edges if target == SINK} == paid
        assert len(solution.cut_edges) == len(forgone) + len(paid)
        for source, target, capacity in solution.cut_edges:
            assert capacity == abs(profits[target if source == SOURCE else source])
        assert sum(capacity for _, _, capacity in solution.cut_edges) == pytest.approx(solution.cut_value)
        positives = sum(profit for profit in profits.values() if profit > 0)
        assert solution.profit == positives - solution.cut_value

    def test_independent_solves_of_one_instance_are_bit_identical(self):
        """Rebuilding an instance and solving it again reproduces every bit of
        the certificate — what lets a recorded cut be checked by replay."""
        for seed in range(10):
            first = solve_project_selection(random_instance(seed))
            second = solve_project_selection(random_instance(seed))
            assert first.selected == second.selected
            assert first.cut_value == second.cut_value
            assert first.profit == second.profit
            assert first.cut_edges == second.cut_edges


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_instances_match_brute_force_profit(self, seed):
        rng = np.random.default_rng(seed)
        n_items = int(rng.integers(2, 8))
        instance = ProjectSelectionInstance()
        for index in range(n_items):
            instance.add_item(index, float(rng.integers(-10, 11)))
        # Random acyclic prerequisites (item -> lower-numbered item).
        for item in range(1, n_items):
            for requirement in range(item):
                if rng.random() < 0.3:
                    instance.add_prerequisite(item, requirement)
        expected_set, expected_profit = brute_force(instance)
        solution = solve_project_selection(instance)
        assert solution.profit == pytest.approx(expected_profit)
        # The selected set must itself be closed and achieve the same profit.
        achieved = sum(instance.profits[item] for item in solution.selected)
        assert achieved == pytest.approx(expected_profit)
        for item, requirement in instance.prerequisites:
            if item in solution.selected:
                assert requirement in solution.selected
