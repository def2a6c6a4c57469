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
    exit_code = 4


class AnalysisError(RoadsenseError):
    exit_code = 5


class OsmParseError(InputDataError):
    """Malformed OSM XML; message includes line/column where available."""


class MissingNodeError(InputDataError):
    """A way references a node id absent from the document."""


class CoordinateRangeError(InputDataError):
    """A node's lat/lon falls outside the valid WGS84 range."""


class DegenerateWayError(InputDataError):
    """A way too short (or too collapsed) to segment."""


class SchemaError(InputDataError):
    """A required CSV column or record field is missing."""


class RowError(InputDataError):
    """A CSV row or record holds a value outside the accepted vocabulary."""


class KeyQuotaError(NetworkError):
    """The imagery API keeps answering REQUEST_DENIED: bad key or quota."""


class CollinearityError(AnalysisError):
    """The regression design is rank deficient; names the offending column."""


class InsufficientDataError(AnalysisError):
    """Too few usable records for the requested statistic."""
