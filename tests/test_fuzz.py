import hashlib
import itertools
import random
import re

import pytest

import stablemodels.formula as formula
import stablemodels.fuzz as fuzz
import stablemodels.oracle as oracle
import stablemodels.semantics as semantics
import stablemodels.splitting as splitting
from stablemodels import (
    And,
    AtomRef,
    GraphKind,
    Implies,
    atoms,
    is_stable,
    loop_oracle_models,
    parse_formula,
    stable_via_loops,
)
from stablemodels.fuzz import ATOM_POOL, PROPERTIES, random_formula, run_fuzz
from stablemodels.sets import _member_ops
from conftest import count_calls, mutant, run_cli


# The campaigns that read drawn op tables, and compile none.
TABLE_CAMPAIGNS = [
    "theorem1", "theorem2", "splitting", "sp-subgraph", "chain",
    "loop-oracle", "loop-oracle-sp",
]


class Picks:
    """A stand-in for ``random.Random`` whose ``choice`` returns the given
    picks in turn, each one from the sequence that it is offered."""

    def __init__(self, *picks):
        self.picks = iter(picks)

    def choice(self, seq):
        pick = next(self.picks)
        assert pick in seq
        return pick


class TestGenerator:
    def test_deterministic_from_seed(self):
        a = fuzz._random_theory(random.Random(7), ATOM_POOL, 4)
        b = fuzz._random_theory(random.Random(7), ATOM_POOL, 4)
        assert a == b

    def test_respects_atom_pool(self):
        pool = ATOM_POOL[:2]
        rng = random.Random(3)
        for _ in range(50):
            ops, universe, _ = fuzz._random_theory(rng, pool, 4)
            assert {x for code, x, _ in ops if code == formula._ATOM} == universe
            assert universe <= set(pool)
            assert atoms(random_formula(rng, pool, 4)) <= set(pool)

    def test_nondisjunctive_generator(self):
        rng = random.Random(5)
        for _ in range(50):
            ops, _, roots = fuzz._random_nondisjunctive_theory(rng, ATOM_POOL, 3)
            assert None not in [semantics._rule(ops, r) for r in roots]


def drawn_tables(module, seeds):
    """For each seed, the table that ``module``'s drawer draws for each of
    the three generators; the pool size and the depth cycle through 1 to
    4 with the seed, so 2000 seeds give each pair 125 times."""
    for seed in seeds:
        pool = ATOM_POOL[: 1 + seed % 4]
        depth = 1 + seed // 4 % 4
        d = module._Drawing(random.Random(seed), pool)
        yield (d.ops, d.atoms, [d.formula(depth)])
        yield module._random_theory(random.Random(seed), pool, depth)
        yield module._random_nondisjunctive_theory(random.Random(seed), pool, depth)


def first_compile_mismatch(module, seeds):
    """The first drawn table of ``drawn_tables`` whose ops or atoms differ
    from ``_compile`` of its decoded tree, or whose member ops differ from
    the ones ``sets._member_ops`` reads off them; None if there is none."""
    for ops, universe, roots in drawn_tables(module, seeds):
        tree = formula._formulas(ops, roots)
        if formula._compile(tree) != (ops, universe):
            return ops
        if _member_ops(ops, len(roots)) != roots:
            return ops
    return None


DRAWER_MUTANTS = {
    # Every bottom gets an op of its own.
    "second-bottom": (
        "        if self.bot is None:\n",
        "        if True:\n",
    ),
    # An implication draws its consequent before its antecedent.
    "consequent-first": (
        "        x = self.formula(depth - 1)\n",
        "        if shape == _IMPLIES:\n"
        "            y = self.formula(depth - 1)\n"
        "            x = self.formula(depth - 1)\n"
        "            self.ops.append((shape, x, y))\n"
        "            return len(self.ops) - 1\n"
        "        x = self.formula(depth - 1)\n",
    ),
}


BUILDER_MUTANTS = {
    # NES(F -> G) loses its conjunct F -> G.
    "no-own-implication": (
        "                if code == _IMPLIES:\n",
        "                if False:\n",
    ),
    # NES keeps the last atom of Y, in atom order, in place.
    "atom-kept": (
        "bot if ys & bit[x] else j",
        "bot if ys & (ys - 1) & bit[x] else j",
    ),
}


class TestDrawer:
    def test_drawn_tables_are_the_compiles_of_their_trees(self):
        assert first_compile_mismatch(fuzz, range(2000)) is None

    def test_decoders_decode_the_drawn_tables(self):
        # ``random_formula`` decodes the table that the same draws give.
        for seed in range(200):
            depth = 1 + seed % 4
            rng = random.Random(seed)
            d = fuzz._Drawing(rng, ATOM_POOL)
            [tree] = formula._formulas(d.ops, [d.formula(depth)])
            after = rng.random()
            rng = random.Random(seed)
            assert random_formula(rng, ATOM_POOL, depth) == tree
            assert rng.random() == after

    def test_adversarial_template_is_the_compile_of_its_tree(self):
        for x, y in itertools.permutations(ATOM_POOL, 2):
            xr, yr = AtomRef(x), AtomRef(y)
            tree = And(Implies(xr, yr), Implies(Implies(Implies(yr, xr), xr), xr))
            template = fuzz._adversarial_loop_formula(Picks(x, y), ATOM_POOL)
            assert template == formula._compile((tree,))

    @pytest.mark.parametrize("name", sorted(DRAWER_MUTANTS))
    def test_mutant_drawers_are_caught(self, name):
        assert first_compile_mismatch(
            mutant(*DRAWER_MUTANTS[name], real=fuzz), range(2000)
        )

    def test_campaign_outputs_are_pinned(self):
        # sha256 over (property, seed, checked, violations) of every
        # campaign at seeds 1 to 3, count 300, recorded when the generator
        # built trees node by node: drawing op tables changes no case.
        digest = hashlib.sha256()
        for prop in PROPERTIES:
            for seed in (1, 2, 3):
                r = run_fuzz(prop, seed, 300)
                digest.update(
                    repr((r.property_name, r.seed, r.checked, r.violations)).encode()
                )
        assert digest.hexdigest() == (
            "1ccccb70973778861973fded8719b810fce518d5f27afcb308bdb4e08b3fc956"
        )


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
        # One pnn graph per sampled case, in ``accept``, read off the drawn
        # table of F & G; the split of each accepted case reads both (208
        # cases sampled for 100 accepted ones; 308 graphs were built when
        # the split built its own).  No case is compiled.
        splits = count_calls(monkeypatch, splitting, "_split")
        assert run_fuzz("splitting", seed=1, count=100).ok
        assert len(splits) == 100
        assert len(graph_builds) == 208
        assert {kind for _, kind, _ in graph_builds} == {GraphKind.PNN}
        assert compiles == []

    @pytest.mark.parametrize(
        ("prop", "count"), [("theorem1", 150), ("theorem2", 118)]
    )
    def test_theorems_compile_no_sample(self, monkeypatch, compiles, prop, count):
        # At seed 1, 150 and 118 sampled theories for 100 accepted ones;
        # ``accept`` reads each drawn table, and so does the check.
        samples = count_calls(monkeypatch, fuzz, "_sp_acyclic")
        assert run_fuzz(prop, seed=1, count=100).ok
        assert len(samples) == count
        assert compiles == []

    @pytest.mark.parametrize("prop", TABLE_CAMPAIGNS)
    def test_table_campaigns_compile_nothing(self, monkeypatch, compiles, prop):
        # ``compiles`` counts through every binding of ``_compile``: a
        # drawn table is read as drawn, the loop oracles' template is
        # written out as ops, and ``chain`` reads the completion's table.
        templates = count_calls(monkeypatch, fuzz, "_adversarial_loop_formula")
        run_fuzz(prop, seed=1, count=100)
        assert compiles == []
        assert bool(templates) == prop.startswith("loop-oracle")

    def test_chain_checks_the_completions_of_its_programs(self, monkeypatch):
        # One completion check per drawn program, on the completion's table.
        reports = []

        def analysis(*args):
            reports.append(semantics._analysis(*args))
            return reports[-1]

        monkeypatch.setattr(fuzz, "_analysis", analysis)
        checked = count_calls(monkeypatch, fuzz, "_completion_models")
        assert run_fuzz("chain", seed=1, count=100).ok
        assert len(reports) == 100
        completions = [r._completion for r in reports if r._completion is not None]
        assert completions
        assert [args[:2] for args in checked] == completions

    def test_mutant_supported_is_caught_by_chain(self, monkeypatch):
        # The supported table skips the last support half, so it holds
        # points where the last atom of the completion is unsupported.
        broken = mutant("for r in roots]", "for r in roots[:-1]]", real=semantics)
        monkeypatch.setattr(fuzz, "_analysis", broken._analysis)
        result = run_fuzz("chain", seed=1, count=400)
        assert result.violations
        assert result.violations[0].startswith(
            "case 50: completion models differ from supported models\n"
        )

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
            run_fuzz("chain", seed=0, count=1, max_depth=7)
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


class TestLoopOracleCampaigns:
    def test_loop_oracle_models_compiles_once(self, compiles, p3):
        for kind in (None, *GraphKind):
            compiles.clear()
            loop_oracle_models(p3, kind)
            assert compiles == [((p3,),)]

    @pytest.mark.parametrize("name", sorted(BUILDER_MUTANTS))
    def test_mutant_builders_are_caught(self, monkeypatch, name):
        builder = mutant(*BUILDER_MUTANTS[name], real=oracle)
        monkeypatch.setattr(
            fuzz, "_loop_formula_tables", builder._loop_formula_tables
        )
        assert not run_fuzz("loop-oracle", seed=1, count=200).ok

    def test_widest_limits_run(self):
        code, out = run_cli([
            "fuzz", "--property", "loop-oracle", "--count", "20",
            "--max-atoms", "8", "--max-depth", "6",
        ])
        assert code == 0
        assert "max-atoms: 8  max-depth: 6" in out


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
