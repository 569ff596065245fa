import random
import re

import pytest

import stablemodels.formula as formula
import stablemodels.semantics as semantics
import stablemodels.splitting as splitting
from stablemodels import (
    GraphKind,
    atoms,
    is_nondisjunctive_theory,
    is_stable,
    parse_formula,
    stable_via_loops,
)
from stablemodels.fuzz import (
    ATOM_POOL,
    random_formula,
    random_nondisjunctive_theory,
    random_theory,
    run_fuzz,
)
from conftest import count_calls


class TestGenerator:
    def test_deterministic_from_seed(self):
        a = random_theory(random.Random(7), ATOM_POOL, 4)
        b = random_theory(random.Random(7), ATOM_POOL, 4)
        assert a == b

    def test_respects_atom_pool(self):
        pool = ATOM_POOL[:2]
        rng = random.Random(3)
        for _ in range(50):
            assert atoms(random_formula(rng, pool, 4)) <= set(pool)

    def test_nondisjunctive_generator(self):
        rng = random.Random(5)
        for _ in range(50):
            t = random_nondisjunctive_theory(rng, ATOM_POOL, 3)
            assert is_nondisjunctive_theory(t)


class TestRunFuzz:
    @pytest.mark.parametrize(
        "prop",
        [
            "theorem1",
            "theorem2",
            "loop-oracle",
            "reduct-lemma",
            "lemma1",
            "sp-subgraph",
            "chain",
        ],
    )
    def test_properties_hold(self, prop):
        result = run_fuzz(prop, seed=11, count=200)
        assert result.ok, result.violations[:1]

    def test_splitting_holds(self):
        result = run_fuzz("splitting", seed=11, count=100)
        assert result.ok, result.violations[:1]

    def test_splitting_splits_accepted_cases_only(self, monkeypatch):
        calls = count_calls(monkeypatch, splitting, "_split")
        result = run_fuzz("splitting", seed=1, count=100)
        assert result.ok
        assert len(calls) == 100

    def test_splitting_builds_one_graph_per_case(
        self, monkeypatch, compiles, graph_builds
    ):
        # One compile and one pnn graph per sampled case, in ``accept``;
        # the split of each accepted case reads both (208 cases sampled
        # for 100 accepted ones; 308 graphs were built when the split
        # built its own).
        splits = count_calls(monkeypatch, splitting, "_split")
        assert run_fuzz("splitting", seed=1, count=100).ok
        assert len(splits) == 100
        assert len(compiles) == len(graph_builds) == 208
        assert {kind for _, kind, _ in graph_builds} == {GraphKind.PNN}

    @pytest.mark.parametrize(
        ("prop", "count"), [("theorem1", 150), ("theorem2", 118)]
    )
    def test_theorems_compile_each_sample_once(self, compiles, prop, count):
        # At seed 1, 150 and 118 sampled theories for 100 accepted ones,
        # each compiled once by ``accept``, whose compile the check reads;
        # theorem1 reads the support halves off a copy of its ops.
        assert run_fuzz(prop, seed=1, count=100).ok
        assert len(compiles) == count

    def test_chain_prints_only_a_violation(self, monkeypatch):
        printed = count_calls(monkeypatch, formula, "print_tokens")
        assert run_fuzz("chain", seed=1, count=100).ok
        assert printed == []

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            run_fuzz("no-such-property", seed=0, count=1)

    def test_limits_enforced(self):
        with pytest.raises(ValueError):
            run_fuzz("chain", seed=0, count=1, max_atoms=9)
        with pytest.raises(ValueError):
            run_fuzz("chain", seed=0, count=1, max_depth=9)
        with pytest.raises(ValueError):
            run_fuzz("chain", seed=0, count=-5)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            run_fuzz("chain", seed=-5, count=1)

    def test_theorem1_makes_one_classical_pass_per_case(self, classical_passes):
        result = run_fuzz("theorem1", seed=3, count=40)
        assert result.ok
        assert len(classical_passes) == 40

    def test_theorem2_builds_no_completion(self, monkeypatch):
        # theorem2 reads the stable and pointwise lists only; theorem1,
        # which compares with the supported list, is the control.
        calls = count_calls(monkeypatch, semantics, "_completion")
        assert run_fuzz("theorem2", seed=3, count=200).ok
        assert calls == []
        assert run_fuzz("theorem1", seed=3, count=5).ok
        assert len(calls) == 5

    def test_deterministic_results(self):
        a = run_fuzz("loop-oracle-sp", seed=1, count=100)
        b = run_fuzz("loop-oracle-sp", seed=1, count=100)
        assert a.violations == b.violations


class TestNegativeControl:
    def test_sp_loop_oracle_is_refuted(self):
        result = run_fuzz("loop-oracle-sp", seed=1, count=200)
        assert not result.ok

    def test_counterexample_reproduces(self):
        result = run_fuzz("loop-oracle-sp", seed=1, count=200)
        message = result.violations[0]
        # The report embeds the theory text and interpretation verbatim.
        text = re.search(r"theory:\n(.+)\.\n", message).group(1)
        interp = re.search(r"interpretation: \{(.*)\}", message).group(1)
        f = parse_formula(text)
        i = frozenset(interp.split())
        assert stable_via_loops(i, f, GraphKind.SP) != is_stable(i, (f,))
