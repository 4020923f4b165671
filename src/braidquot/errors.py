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
    """A combinatorial search ran past its node budget; ``explored`` is the
    node count that crossed it."""

    def __init__(self, message: str, explored: int):
        super().__init__(message)
        self.explored = explored


class Budget:
    """The node count of one search: ``spend()`` counts a node, and past
    ``limit`` (None for no limit) raises ``SearchBudgetExceeded`` with the
    count."""

    def __init__(self, what: str, limit: int | None = None):
        self.what, self.limit, self.spent = what, limit, 0

    def spend(self) -> None:
        self.spent += 1
        if self.limit is not None and self.spent > self.limit:
            raise SearchBudgetExceeded(f"{self.what} exceeded {self.limit} nodes",
                                       explored=self.spent)
