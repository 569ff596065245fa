"""Exception hierarchy shared by the workbench modules, and the one cap check."""

from .formula import print_formula


class StableModelsError(Exception):
    """Base class for all workbench errors."""


class FormulaParseError(StableModelsError):
    """Raised on malformed input text; carries a 1-based position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class CapExceededError(StableModelsError):
    """Raised when an exhaustive enumeration would exceed its atom cap."""

    def __init__(self, what: str, count: int, cap: int):
        super().__init__(
            f"{what}: {count} atoms exceeds the enumeration cap of {cap}"
        )
        self.count = count
        self.cap = cap


def check_cap(atom_count: int, cap: int, what: str = "enumeration") -> None:
    if atom_count > cap:
        raise CapExceededError(what, atom_count, cap)


class NotNondisjunctiveError(StableModelsError):
    """Raised when a nondisjunctive-only operation meets another formula."""

    def __init__(self, offender):
        super().__init__(
            f"not a nondisjunctive rule: {print_formula(offender)}"
        )
        self.offender = offender


class AtomsOutsideFormulaError(StableModelsError):
    """Raised when a given atom set is not contained in a formula's atoms."""

    def __init__(self, extra):
        super().__init__(
            "atoms do not occur in the formula: " + " ".join(sorted(extra))
        )
        self.extra = frozenset(extra)


class NotAPartitionError(StableModelsError):
    """Raised when the two atom sets of a split do not partition the atoms."""
