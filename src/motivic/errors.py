"""Shared error types.

Everything raised on purpose by the workbench derives from WorkbenchError so
callers (and the CLI) can tell evaluation failures from genuine bugs.
"""


class WorkbenchError(Exception):
    pass


class CapExceeded(WorkbenchError):
    """An instance blew past a configured size cap."""


class NotFinite(WorkbenchError):
    """A quotient algebra expected to be finite-dimensional is not."""


class NotLocal(WorkbenchError):
    """A candidate fat point has a non-nilpotent coordinate."""


class FieldMismatch(WorkbenchError):
    pass


class AmbientMismatch(WorkbenchError):
    """Two objects that must share an ambient presentation do not."""


class EnumerationUnavailable(WorkbenchError):
    """Point enumeration was requested over an infinite field."""


class EvalError(WorkbenchError):
    """A script statement failed to evaluate."""
