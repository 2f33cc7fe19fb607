"""Shared exception types."""


class DynColorError(Exception):
    pass


class GraphError(DynColorError):
    pass


class DegreeCapExceeded(GraphError):
    def __init__(self, u, v, offender, delta):
        self.pair = (u, v)
        self.offender = offender
        super().__init__(
            f"inserting ({u},{v}) would push degree of {offender} past cap {delta}"
        )


class BadEndpoints(GraphError, ValueError):
    """A self-loop, or an endpoint outside the vertex range."""

    def __init__(self, u, v):
        self.pair = (u, v)
        super().__init__(f"bad endpoints ({u},{v})")


class DuplicateEdge(GraphError):
    def __init__(self, u, v):
        self.pair = (u, v)
        super().__init__(f"edge ({u},{v}) already present")


class MissingEdge(GraphError):
    def __init__(self, u, v):
        self.pair = (u, v)
        super().__init__(f"edge ({u},{v}) not present")


class MalformedTrace(DynColorError):
    """A trace file that does not parse; `lineno` is None for a header fault."""

    def __init__(self, lineno, reason):
        self.lineno = lineno
        where = "trace header" if lineno is None else f"trace line {lineno}"
        super().__init__(f"{where}: {reason}")


class IterationCapExceeded(DynColorError):
    """A rejection-sampling loop ran out of attempts; caller must fall back."""

    def __init__(self, op, subject):
        self.op = op
        self.subject = subject
        super().__init__(f"{op}: iteration cap exceeded for {subject}")


class EmptyPalette(DynColorError):
    """No unassigned light color is left; signals a violated precondition."""


class InvariantViolation(DynColorError):
    pass


class Exhausted(DynColorError):
    """An adversary has no legal update left to emit."""


class OutOfRange(DynColorError, IndexError):
    """A vertex, color or occupant index outside its range."""
