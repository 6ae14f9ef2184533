"""Exception hierarchy shared across the library and the CLI.

The CLI maps these onto process exit codes: UsageError -> 2,
InfeasibleParametersError -> 3, AxiomViolationError -> 4,
InsufficientNodesError -> 5.
"""

from __future__ import annotations


class AtrahasisError(Exception):
    """Base class for all library errors."""


class UsageError(AtrahasisError):
    """Caller violated a precondition (non-canonical values, bad lengths, ...)."""


class InfeasibleParametersError(AtrahasisError):
    """Requested code parameters cannot be realized as asked."""


class FieldTooSmallError(InfeasibleParametersError):
    """The field does not have enough usable points for the construction."""


class AxiomViolationError(AtrahasisError):
    """A spanning condition required by the code failed.

    `axiom` names the condition, `subset` the offending node indices and,
    for repair-style conditions, `failed_node` the node being repaired.
    """

    def __init__(self, axiom, subset=None, failed_node=None, message=None):
        self.axiom = axiom
        self.subset = tuple(subset) if subset is not None else None
        self.failed_node = failed_node
        if message is None:
            message = f"axiom {axiom} violated"
            if failed_node is not None:
                message += f" for failed node {failed_node}"
            if self.subset is not None:
                message += f" at subset {self.subset}"
        super().__init__(message)


class InsufficientNodesError(AtrahasisError):
    """Not enough live nodes to run the requested operation."""


class CorruptDataError(UsageError):
    """A serialized artifact failed validation (magic, hash, lengths)."""
