"""Exception hierarchy shared across the package.

Every error carries a stable ``exit_code`` so the command line tool can
map failures to documented process exit statuses.
"""


class EdgeSyncError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ParseError(EdgeSyncError):
    """Malformed scenario or graph text; message carries file and line."""

    exit_code = 2

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
            if line is not None:
                loc += f"{line}:"
            loc += " "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


class DisconnectedGraphError(EdgeSyncError):
    """Controller requested on a graph with more than one component."""

    exit_code = 3


class DimensionMismatchError(EdgeSyncError):
    """Incompatible array shapes or sizes."""

    exit_code = 4


class NotStabilizableError(EdgeSyncError):
    """No stabilizing gain exists for the requested pair."""

    exit_code = 5


class DivergedError(EdgeSyncError):
    """State left the finite simulation envelope."""

    exit_code = 7

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class NotPositiveDefiniteError(EdgeSyncError):
    """A matrix required to be (semi)definite is not."""

    exit_code = 8


class SingularMatrixError(EdgeSyncError):
    """Linear solve hit a vanishing pivot."""

    exit_code = 9


class NonSymmetricError(EdgeSyncError):
    """Symmetric eigensolver fed a matrix outside its symmetry tolerance."""

    exit_code = 9


class NoConvergenceError(EdgeSyncError):
    """Iteration cap exceeded before reaching the requested tolerance."""

    exit_code = 9


class NonFiniteError(EdgeSyncError):
    """A kernel's input or result is not finite: its numbers overflow."""

    exit_code = 9


class WeightRangeError(EdgeSyncError):
    """Edge weights so far apart that the edge lift overflows."""

    exit_code = 9


class EmptyWindowError(EdgeSyncError):
    """Requested analysis window contains no usable samples."""

    exit_code = 10
