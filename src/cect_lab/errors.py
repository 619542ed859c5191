"""Exception types shared across the package; each raise site builds its whole message."""


class CectLabError(Exception):
    """Base class for all package errors."""


class TopologyFormatError(CectLabError):
    """A topology file failed to parse or violated a structural invariant."""


class FlowFormatError(CectLabError):
    """A flow file failed to parse."""


class AssignmentFormatError(CectLabError):
    """An assignment dump failed to parse; the message names the line."""


class NoFeasiblePathError(CectLabError):
    """A flow has no candidate path in the path table."""


class InfeasibleLabelError(CectLabError):
    """A flow's path is missing or does not join its endpoints; the message names the flow."""


class SearchBudgetExceededError(CectLabError):
    """The exhaustive solver's assignment space exceeds the given budget."""


class ConfigError(CectLabError):
    """An experiment config file is malformed."""
