"""Workbench for propositional stable-model semantics.

Builds formula ASTs with a small text grammar, enumerates classical,
stable, supported, and pointwise stable models from integer truth
tables and here-and-there semantics, derives
the two positive dependency graphs of a theory, generates loop
formulas, and checks the splitting conditions for conjunctions.
"""

__version__ = "0.1.0"

from .depgraph import (
    DepGraph,
    GraphKind,
    g_pnn,
    g_sp,
    graph_of,
    has_cycle,
    sccs,
    strongly_connected_subsets,
    subgraph_of,
    to_dot,
)
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
    OccurrenceContext,
    Or,
    RuleOccurrence,
    Theory,
    as_rule,
    atoms,
    classify_occurrences,
    is_nondisjunctive_rule,
    is_nondisjunctive_theory,
    print_formula,
    print_theory,
    rules_of,
    spos,
    theory_atoms,
)
from .loopformulas import (
    loop_formula,
    loop_oracle_models,
    nes,
    stable_via_all_sets,
    stable_via_loops,
)
from .parser import parse_formula, parse_theory
from .semantics import (
    DEFAULT_CAP,
    Interpretation,
    ModelReport,
    analyze,
    classical_models,
    completion,
    interpretations_of,
    is_pointwise_stable,
    is_stable,
    is_supported,
    pointwise_stable_models,
    reduct,
    reduct_theory,
    satisfies,
    stable_models,
    supported_models,
)
from .splitting import SplitReport, check_split, choice_augment
