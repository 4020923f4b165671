"""Exception types shared across the toolkit."""


class GroupError(Exception):
    """Base class for all toolkit errors."""


class NotAGroup(GroupError):
    """A multiplication table violates the group axioms."""


class SizeLimit(GroupError):
    """A construction or search would exceed the configured size cap."""


class NotNormal(GroupError):
    """A subgroup passed where a normal subgroup is required is not normal."""


class NotJn2(GroupError):
    """The group fails the just-2-step-nilpotent characterization."""


class ParamRange(GroupError):
    """Parameters outside the operation's admissible range."""


class HypothesisFailed(GroupError):
    """A named hypothesis of a constructive recipe is violated."""


class SearchBudgetExceeded(GroupError):
    """A combinatorial search ran past its node budget."""

    def __init__(self, message: str, explored: int | None = None):
        super().__init__(message)
        self.explored = explored
