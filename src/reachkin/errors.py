"""Exception hierarchy shared by all reachkin modules.

Three broad families map onto the CLI exit codes: input problems (bad or
inconsistent data files), numerical failures (solvers that cannot produce a
trustworthy answer), and configuration mistakes.
"""


class ReachkinError(Exception):
    """Base class for all reachkin errors."""


class InputError(ReachkinError):
    """Malformed or inconsistent input data. CLI exit code 2."""


class NumericalError(ReachkinError):
    """A numerical routine failed or was handed an unusable problem. Exit code 3."""


class ConfigError(ReachkinError):
    """Bad pipeline configuration. CLI exit code 4."""


# --- parsing / model-io ----------------------------------------------------

class ParseError(InputError):
    def __init__(self, message, row=None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class MissingColumn(ParseError):
    pass


class EmptyFile(ParseError):
    pass


class NonMonotonicTime(ParseError):
    pass


class ConfidenceOutOfRange(ParseError):
    pass


class HitBeforeAppear(ParseError):
    pass


class UnpairedTarget(ParseError):
    pass


# --- preprocessing ---------------------------------------------------------

class AllFramesRejected(InputError):
    pass


class FactorTooLarge(InputError):
    pass


class UnstableSpec(ConfigError):
    pass


class TooFewInliers(InputError):
    pass


# --- 3D reconstruction -----------------------------------------------------

class DegenerateConfiguration(NumericalError):
    pass


class RayParallel(NumericalError):
    pass


class NoConvergence(NumericalError):
    pass


class ShouldersUntracked(InputError):
    pass


# --- kinematics / splines --------------------------------------------------

class NoFramesInWindow(InputError):
    pass


class ZeroPathLength(NumericalError):
    pass


class ZeroInitialDistance(NumericalError):
    pass


class RankDeficient(NumericalError):
    pass


class VerticalTangent(NumericalError):
    pass


# --- statistics ------------------------------------------------------------

class ZeroWithinVariance(NumericalError):
    pass


class TooFewSamples(InputError):
    pass


# --- age model -------------------------------------------------------------

class SequenceTooShort(InputError):
    pass


class TooFewParticipants(InputError):
    pass


class DivergedLoss(NumericalError):
    pass
