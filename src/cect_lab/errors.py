"""Exception types shared across the package; each raise site builds its whole message."""


class CectLabError(Exception):
    """Bad input; the message names the file, the line or the flow."""


class SearchBudgetExceededError(CectLabError):
    """The exhaustive solver's assignment space exceeds the given budget."""
