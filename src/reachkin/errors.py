"""Exception hierarchy shared by all reachkin modules.

Three broad families map onto the CLI exit codes: input problems (bad or
inconsistent data files), numerical failures (solvers that cannot produce a
trustworthy answer), and configuration mistakes. A failure is told apart by
its message, which names what failed; the only subclasses are those a caller
catches by name.
"""


class ReachkinError(Exception):
    """Base class for all reachkin errors."""


class InputError(ReachkinError):
    """Malformed or inconsistent input data. CLI exit code 2."""


class NumericalError(ReachkinError):
    """A numerical routine failed or was handed an unusable problem. Exit code 3."""


class ConfigError(ReachkinError):
    """Bad pipeline configuration. CLI exit code 4."""


class ParseError(InputError):
    """A data file that cannot be read; ``row`` is its line, when known."""

    def __init__(self, message, row=None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


# --- caught by the metrics stage, which drops the reach --------------------

class TooFewInliers(InputError):
    pass


class ZeroPathLength(NumericalError):
    pass


class ZeroInitialDistance(NumericalError):
    pass
