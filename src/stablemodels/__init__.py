"""Workbench for propositional stable-model semantics.

Builds formula ASTs with a small text grammar, enumerates classical,
stable, supported, and pointwise stable models from integer truth
tables and here-and-there semantics, derives
the two positive dependency graphs of a theory, generates loop
formulas, and checks the splitting conditions for conjunctions.
"""

__version__ = "0.1.0"

from .depgraph import GraphKind
from .errors import (
    AtomsOutsideFormulaError,
    CapExceededError,
    FormulaParseError,
    NotAPartitionError,
    NotNondisjunctiveError,
    StableModelsError,
)
from .formula import (
    BOT,
    TOP,
    And,
    AtomRef,
    Bottom,
    Formula,
    Implies,
    Or,
    Theory,
    as_rule,
    atoms,
    is_nondisjunctive_rule,
    is_nondisjunctive_theory,
    print_formula,
    print_theory,
    theory_atoms,
)
from .loopformulas import stable_via_all_sets, stable_via_loops
from .oracle import (
    OccurrenceContext,
    RuleOccurrence,
    choice_augment,
    classify_occurrences,
    format_models,
    interpretations_of,
    is_pointwise_stable,
    is_stable,
    is_supported,
    loop_formula,
    loop_oracle_models,
    nes,
    reduct,
    reduct_theory,
    rules_of,
    satisfies,
    satisfies_all,
    spos,
)
from .parser import parse_formula, parse_theory
from .semantics import DEFAULT_CAP, Interpretation, ModelReport
from .sets import (
    DepGraph,
    analyze,
    check_split,
    classical_models,
    completion,
    g_pnn,
    g_sp,
    graph_of,
    has_cycle,
    pointwise_stable_models,
    sccs,
    stable_models,
    strongly_connected_subsets,
    subgraph_of,
    supported_models,
    to_dot,
)
from .splitting import SplitReport
