"""The library API: every name the package root exports stays exported."""

import inspect

import stablemodels
import stablemodels.oracle as oracle
import stablemodels.sets as sets

# The names the package root exported before the definitions moved into
# ``oracle`` and ``sets``.
API = (
    "And AtomRef AtomsOutsideFormulaError BOT Bottom CapExceededError "
    "DEFAULT_CAP DepGraph Formula FormulaParseError GraphKind Implies "
    "Interpretation ModelReport NotAPartitionError NotNondisjunctiveError "
    "OccurrenceContext Or RuleOccurrence SplitReport StableModelsError TOP "
    "Theory analyze as_rule atoms check_split choice_augment "
    "classical_models classify_occurrences completion g_pnn g_sp graph_of "
    "has_cycle interpretations_of is_nondisjunctive_rule "
    "is_nondisjunctive_theory is_pointwise_stable is_stable is_supported "
    "loop_formula loop_oracle_models nes parse_formula parse_theory "
    "pointwise_stable_models print_formula print_theory reduct "
    "reduct_theory rules_of satisfies sccs spos stable_models "
    "stable_via_all_sets stable_via_loops strongly_connected_subsets "
    "subgraph_of supported_models theory_atoms to_dot"
).split()
# Those of them that ``oracle`` now defines.
MOVED = (
    "OccurrenceContext RuleOccurrence choice_augment classify_occurrences "
    "is_pointwise_stable is_stable is_supported loop_formula "
    "loop_oracle_models nes reduct reduct_theory rules_of satisfies spos"
).split()
# Those of them that ``sets``, the set-level adapter, now defines.
SET_LEVEL = (
    "DepGraph analyze check_split classical_models completion g_pnn g_sp "
    "graph_of has_cycle pointwise_stable_models sccs stable_models "
    "strongly_connected_subsets subgraph_of supported_models to_dot"
).split()


def test_package_root_exports_every_name():
    missing = [name for name in API if not hasattr(stablemodels, name)]
    assert missing == []
    misplaced = [
        name
        for name in MOVED
        if getattr(stablemodels, name) is not getattr(oracle, name, None)
        or getattr(oracle, name).__module__ != oracle.__name__
    ]
    assert misplaced == []


def test_set_level_api_lives_in_sets():
    misplaced = [
        name
        for name in SET_LEVEL
        if getattr(stablemodels, name) is not getattr(sets, name, None)
        or getattr(sets, name).__module__ != sets.__name__
    ]
    assert misplaced == []
    # And every public function and class that ``sets`` defines is one.
    defined = {
        name
        for name, value in vars(sets).items()
        if (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == sets.__name__
        and not name.startswith("_")
    }
    assert defined == set(SET_LEVEL)
