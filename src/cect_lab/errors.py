"""Exception types shared across the package."""


class CectLabError(Exception):
    """Base class for all package errors."""


class TopologyFormatError(CectLabError):
    """A topology file failed to parse or violated a structural invariant."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class FlowFormatError(CectLabError):
    """A flow file failed to parse."""


class AssignmentFormatError(CectLabError):
    """An assignment dump failed to parse; the message names the line."""

    def __init__(self, message: str, line_no: int):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class NoFeasiblePathError(CectLabError):
    """A flow has no candidate path in the path table."""

    def __init__(self, flow_id: int, src: int, dst: int):
        self.flow_id = flow_id
        super().__init__(
            f"flow {flow_id} ({src} -> {dst}) has no feasible path in the table"
        )


class InfeasibleLabelError(CectLabError):
    """A chosen path label does not match the flow's endpoints."""

    def __init__(self, flow_id: int, label: int, detail: str = ""):
        self.flow_id = flow_id
        self.label = label
        msg = f"flow {flow_id}: path label {label} is not feasible"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class SearchBudgetExceededError(CectLabError):
    """The exhaustive solver's assignment space exceeds the given budget."""

    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"assignment search space exceeds budget of {budget}")


class UnreachableFlowError(CectLabError):
    """A flow's destination is unreachable from its source."""

    def __init__(self, flow_id: int, src: int, dst: int):
        self.flow_id = flow_id
        super().__init__(f"flow {flow_id}: no route from {src} to {dst}")


class ConfigError(CectLabError):
    """An experiment config file is malformed."""
