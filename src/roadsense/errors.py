"""Exception taxonomy shared across the pipeline.

Each branch carries the process exit code the CLI maps it to:
2 config, 3 input data, 4 network, 5 analysis.
"""


class RoadsenseError(Exception):
    exit_code = 1


class ConfigError(RoadsenseError):
    exit_code = 2


class InputDataError(RoadsenseError):
    exit_code = 3


class NetworkError(RoadsenseError):
    """The imagery API keeps answering REQUEST_DENIED: bad key or quota."""

    exit_code = 4


class AnalysisError(RoadsenseError):
    exit_code = 5


class DegenerateWayError(InputDataError):
    """A way too short (or too collapsed) to segment."""
