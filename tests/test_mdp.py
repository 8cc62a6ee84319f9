"""Model layer validation, and the oracle's induced chains and exact cost
distribution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import loop_mdp, make_chain, make_mdp, two_action_mdp
from oracles import (MissingPolicyEntry, ZeroCostCycle, induce_chain,
                     reward_distribution_exact)
from riskplan.mdp import InvalidModel, Mdp, Plan


def problems(*args, **kwargs) -> list[str]:
    """What building the model with ``make_mdp`` reports."""
    with pytest.raises(InvalidModel) as exc:
        make_mdp(*args, **kwargs)
    assert str(exc.value) == "; ".join(exc.value.problems)
    return exc.value.problems


class TestValidate:
    def test_clean_model_has_no_problems(self):
        assert isinstance(two_action_mdp(), Mdp)

    def test_duplicate_state_id(self):
        assert problems([("s", 0.0), ("s", 0.0), ("g", 0.0)],
                        [("s", "a", "g", 1.0)], "s", {"g"}) == [
            "duplicate state id 's'"]

    def test_negative_cost(self):
        assert problems([("s", -1.0), ("g", 0.0)],
                        [("s", "a", "g", 1.0)], "s", {"g"}) == [
            "state 's' has negative cost -1.0"]

    def test_probabilities_must_sum_to_one(self):
        assert problems([("s", 0.0), ("g", 0.0)],
                        [("s", "a", "g", 0.7)], "s", {"g"}) == [
            "outgoing probabilities from ('s','a') sum to 0.7, not 1"]

    def test_unknown_references(self):
        # make_mdp puts an unknown id just past the states: the model names
        # a state by position where it has no id
        assert problems([("s", 0.0), ("g", 0.0)],
                        [("s", "a", "nowhere", 1.0)], "s", {"g"}) == [
            "transition to unknown state position 2"]

    def test_half_mass_to_an_undeclared_state(self):
        # unchecked, the solver would give this start a finite log V of 0
        assert problems([("s0", 1.0), ("goal", 0.0)],
                        [("s0", "go", "goal", 0.5), ("s0", "go", "nowhere", 0.5)],
                        "s0", {"goal"}) == ["transition to unknown state position 2"]

    def test_every_problem_in_order(self):
        assert problems(
            [("s", -2.0), ("s", 0.0), ("g", 0.0)],
            [("s", "a", "g", 1.5), ("x", "a", "g", 1.0), ("s", "b", "y", 0.5),
             ("s", "b", "g", 0.25)],
            "start", {"goal"}) == [
            "state 's' has negative cost -2.0",
            "duplicate state id 's'",
            "start position 3 is not a declared state",
            "goal position 3 is not a declared state",
            "transition ('s','a','g') has probability 1.5 outside [0,1]",
            "transition from unknown state position 3",
            "transition to unknown state position 3",
            "outgoing probabilities from ('s','a') sum to 1.5, not 1",
            "outgoing probabilities from ('s','b') sum to 0.75, not 1",
        ]


class TestInduceChain:
    def test_goal_states_become_absorbing(self):
        chain = induce_chain(two_action_mdp(), Plan({"s0": "a", "pay10": "go"}))
        assert chain.edges["goal"] == [("goal", 1.0)]
        assert set(chain.states) == {"s0", "pay10", "goal"}

    def test_missing_entry_raises(self):
        with pytest.raises(MissingPolicyEntry) as exc:
            induce_chain(two_action_mdp(), Plan({"s0": "b"}))
        assert exc.value.state in {"pay2", "pay30"}

    def test_unreachable_states_are_dropped(self):
        chain = induce_chain(two_action_mdp(), Plan({"s0": "a", "pay10": "go"}))
        assert "pay2" not in chain.states


class TestExactDistribution:
    def test_deterministic_chain_single_atom(self):
        chain = make_chain({"s0": [("s1", 1.0)], "s1": [("g", 1.0)]},
                           {"s0": 1.0, "s1": 2.0, "g": 5.0}, "s0", {"g"})
        dist = reward_distribution_exact(chain)
        # the goal state's own cost never counts
        assert dist.mass == {3.0: pytest.approx(1.0)}
        assert dist.residual == pytest.approx(0.0)

    def test_geometric_loop_closed_form(self):
        chain = induce_chain(loop_mdp(0.5), Plan({"s0": "try"}))
        dist = reward_distribution_exact(chain, epsilon=1e-12)
        for k in range(1, 20):
            assert dist.mass[float(k)] == pytest.approx(0.5 ** k)
        assert dist.mean() == pytest.approx(2.0, abs=1e-9)
        assert dist.residual < 1e-12

    def test_branching_atoms(self):
        chain = induce_chain(two_action_mdp(),
                             Plan({"s0": "b", "pay2": "go", "pay30": "go"}))
        dist = reward_distribution_exact(chain)
        assert dist.mass[2.0] == pytest.approx(0.9)
        assert dist.mass[30.0] == pytest.approx(0.1)
        assert dist.mean() == pytest.approx(0.9 * 2 + 0.1 * 30)

    def test_trap_mass_goes_to_residual(self):
        chain = make_chain(
            {"s0": [("g", 0.7), ("trap", 0.3)], "trap": [("trap", 1.0)]},
            {"s0": 1.0, "trap": 1.0, "g": 0.0}, "s0", {"g"})
        dist = reward_distribution_exact(chain)
        assert dist.residual == pytest.approx(0.3)
        assert sum(dist.mass.values()) == pytest.approx(0.7)
        assert dist.total() == pytest.approx(1.0)

    def test_zero_cost_cycle_is_diagnosed(self):
        chain = make_chain(
            {"s0": [("a", 1.0)], "a": [("b", 1.0)], "b": [("a", 1.0)]},
            {"s0": 1.0, "a": 0.0, "b": 0.0, "g": 0.0}, "s0", {"g"})
        with pytest.raises(ZeroCostCycle) as exc:
            reward_distribution_exact(chain)
        assert set(exc.value.cycle) == {"a", "b"}

    @given(p=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=25, deadline=None)
    def test_total_mass_is_conserved(self, p):
        chain = induce_chain(loop_mdp(p), Plan({"s0": "try"}))
        dist = reward_distribution_exact(chain, epsilon=1e-10)
        assert dist.total() == pytest.approx(1.0, abs=1e-12)
        assert dist.mean() == pytest.approx(1.0 / p, rel=1e-6)
