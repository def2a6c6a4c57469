"""Condition statistics in plain Python: linear probability models with
dummy-coded factors, census-tract income joins, and quintile bins.

The regressions are plain OLS on 0/1 outcomes so coefficients read as
differences in proportions. Classical standard errors by default; HC1
robust errors on request.
"""

from __future__ import annotations

import logging
import math
import operator
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import AnalysisError, InputDataError
from .fileio import JSON_KINDS, json_field, json_typed, parse_json
from .geometry import GeoPoint, PolygonRing, point_in_polygon
from .osm_ingest import SAMPLED_ROAD_CLASSES

log = logging.getLogger(__name__)

ROAD_CLASS_BASELINE = "tertiary"

PIVOT_TOLERANCE = 1e-10


@dataclass
class RegressionResult:
    coefficient_names: list[str]
    estimates: list[float]
    standard_errors: list[float]
    n: int
    r_squared: float


@dataclass(frozen=True)
class TractPolygon:
    tract_id: str
    shapes: tuple[PolygonRing, ...]   # one entry per polygon of a multipolygon
    per_capita_income: float

    def bounds(self):
        bs = [s.bounds() for s in self.shapes]
        return (min(b[0] for b in bs), min(b[1] for b in bs),
                max(b[2] for b in bs), max(b[3] for b in bs))


@dataclass(frozen=True)
class QuintileBinning:
    cut_points: tuple[float, float, float, float]  # strictly ascending: quintile_bins

    def bin_of(self, income: float) -> str:
        # values equal to a cut point fall in the lower bin
        idx = sum(1 for c in self.cut_points if c < income)
        return ("Q1", "Q2", "Q3", "Q4", "Q5")[idx]  # shared constants, not a new string per row


def _dot(a, b) -> float:
    return math.fsum(map(operator.mul, a, b))


def ols_fit(design, response, names: list[str], robust: bool = False) -> RegressionResult:
    """Least squares via Householder QR, with classical (or HC1) errors.

    Identical design rows are factored once: a row x seen c times with
    responses summing to s enters the QR as sqrt(c)*x with right-hand side
    s/sqrt(c), which keeps X'X and X'y. Every sum is a math.fsum.

    Rank deficiency (any |r_jj| below PIVOT_TOLERANCE times the largest) is
    reported as a collinearity error naming the first such column: the
    first column that the columns before it explain.
    """
    y = [float(v) for v in response]
    groups: dict[tuple[float, ...], list[float]] = {}  # distinct row -> its responses
    for row, value in zip(design, y, strict=True):
        groups.setdefault(tuple(map(float, row)), []).append(value)
    rows = list(groups)
    n, k = len(y), len(names)
    if n <= k:
        raise AnalysisError(f"need more observations ({n}) than coefficients ({k})")

    roots = [math.sqrt(len(ys)) for ys in groups.values()]
    cols = [[c * x[j] for x, c in zip(rows, roots)] for j in range(k)]
    cols.append([math.fsum(ys) / c for ys, c in zip(groups.values(), roots)])
    # reflected in place: cols[i][j] becomes r_ji above the diagonal, cols[k] Q'y
    r_diag = [0.0] * k
    for j in range(k):
        v = cols[j][j:]
        norm = math.sqrt(_dot(v, v))
        if norm:  # else r_jj stays 0 and the rank test below names column j
            r_diag[j] = alpha = -math.copysign(norm, v[0])
            v[0] -= alpha
            scale = norm * abs(v[0])  # v'v / 2
            for col in cols[j + 1:]:
                d = _dot(v, col[j:]) / scale
                col[j:] = [b - d * a for a, b in zip(v, col[j:])]
    largest = max(map(abs, r_diag), default=0.0)
    if largest == 0.0:
        raise AnalysisError(f"design is all zeros (column {names[0]})")
    bad = [j for j in range(k) if abs(r_diag[j]) < PIVOT_TOLERANCE * largest]
    if bad:
        raise AnalysisError(
            f"design is rank deficient: column {names[bad[0]]} is collinear "
            "with the others")

    def back_substitute(rhs: list[float]) -> list[float]:
        out = [0.0] * k
        for j in reversed(range(k)):
            out[j] = (rhs[j] - _dot([c[j] for c in cols[j + 1:k]], out[j + 1:])) / r_diag[j]
        return out

    beta = back_substitute(cols[k])
    rinv = list(zip(*(back_substitute([float(i == j) for i in range(k)]) for j in range(k))))
    fitted = [_dot(beta, x) for x in rows]
    sq_residuals = [math.fsum((v - fit) ** 2 for v in ys)
                    for fit, ys in zip(fitted, groups.values())]
    rss = math.fsum(sq_residuals)
    # (X'X)^-1 = R^-1 R^-T; each variance is a sum of squares, never below 0
    if robust:
        # HC1: (X'X)^-1 X' diag(e^2) X (X'X)^-1 scaled by n/(n-k)
        xtx_inv = [[_dot(a, b) for b in rinv] for a in rinv]
        var = [_dot(sq_residuals, [_dot(a, x) ** 2 for x in rows]) * (n / (n - k))
               for a in xtx_inv]
    else:
        var = [_dot(a, a) * (rss / (n - k)) for a in rinv]

    mean = math.fsum(y) / n
    tss = math.fsum((v - mean) ** 2 for v in y)
    # a constant response has no variance to explain: R^2 is 0 by convention
    r2 = 0.0 if tss <= 1e-12 * (_dot(y, y) + 1.0) else 1.0 - rss / tss
    return RegressionResult(coefficient_names=list(names), estimates=beta,
                            standard_errors=[math.sqrt(v) for v in var], n=n, r_squared=r2)


def build_design(rows: list[dict], factors: list[str],
                 baselines: dict | None = None) -> tuple[list[tuple[float, ...]], list[str]]:
    """The dummy-coded design rows, one shared tuple per distinct
    combination of factor levels, and their column names: an intercept plus
    one dummy column per non-baseline factor level.

    road_class uses the four named classes as its declared level set
    (baseline tertiary), so a class absent from the data shows up as a
    zero column and is rejected by ols_fit rather than silently dropped.
    Other factors take their levels from the data, sorted; income_quintile
    defaults its baseline to the lowest bin.
    """
    baselines = dict(baselines or {})
    names = ["intercept"]
    for factor in factors:
        if factor == "road_class":
            levels = SAMPLED_ROAD_CLASSES
            baselines.setdefault(factor, ROAD_CLASS_BASELINE)
            for row in rows:
                if row[factor] not in levels:
                    raise AnalysisError(
                        f"unseen level {row[factor]!r} for factor road_class; "
                        f"expected one of {levels}")
        else:
            levels = tuple(sorted({row[factor] for row in rows}))
            baselines.setdefault(factor, levels[0])
        if baselines[factor] not in levels:
            raise AnalysisError(
                f"baseline {baselines[factor]!r} not a level of {factor}")
        names += [f"{factor}={level}" for level in levels if level != baselines[factor]]

    coded: dict[tuple, tuple[float, ...]] = {}  # levels -> their shared design row
    matrix = []
    for row in rows:
        levels = tuple(row[factor] for factor in factors)
        if levels not in coded:
            on = {"intercept", *map("{}={}".format, factors, levels)}  # a baseline has no column
            coded[levels] = tuple(float(name in on) for name in names)
        matrix.append(coded[levels])
    return matrix, names


def _ring(where: str, ring) -> list[GeoPoint]:
    number = JSON_KINDS["a number"]  # tested inline: a call per position costs
    out = []
    for k, position in enumerate(json_typed(ring, "a list", where)):
        # a position may carry an altitude after lon and lat (RFC 7946 3.1.1)
        if (type(position) is not list or len(position) < 2
                or type(position[0]) not in number or type(position[1]) not in number):
            raise InputDataError(f"{where}[{k}]: expected a [lon, lat] position of numbers")
        try:
            out.append(GeoPoint(position[1], position[0]))
        except ValueError as e:
            raise InputDataError(f"{where}[{k}]: {e}") from e
    return out


def _non_empty_list(value, where: str) -> list:
    if not value:
        raise InputDataError(f"{where}: expected a non-empty list")
    return json_typed(value, "a list", where)


def _shapes(where: str, geom) -> tuple[PolygonRing, ...]:
    geom = json_typed(geom, "an object", f"{where}geometry")
    gtype = geom.get("type")
    if gtype not in ("Polygon", "MultiPolygon"):
        raise InputDataError(f"{where}geometry.type: unsupported geometry {gtype!r}")
    where += "geometry.coordinates"
    coords = _non_empty_list(geom.get("coordinates"), where)
    if gtype == "Polygon":
        polygons = [(where, coords)]
    else:
        polygons = [(f"{where}[{j}]", p) for j, p in enumerate(coords)]
    shapes = []
    for at, rings in polygons:
        parsed = [_ring(f"{at}[{k}]", ring) for k, ring in enumerate(_non_empty_list(rings, at))]
        try:
            shapes.append(PolygonRing(parsed[0], parsed[1:]))
        except ValueError as e:
            raise InputDataError(f"{at}: {e}") from e
    return tuple(shapes)


def load_tracts_geojson(path: str | Path) -> list[TractPolygon]:
    """Read a FeatureCollection of Polygon/MultiPolygon tract features.

    Each feature needs properties tract_id (string or integer) and
    per_capita_income (a number >= 0). GeoJSON positions come in [lon, lat]
    order; an altitude after them is ignored. A malformed file raises
    InputDataError naming the file, the feature index and the field.
    """
    doc = parse_json(Path(path).read_bytes(), path)
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise InputDataError(f"{path}: expected a GeoJSON FeatureCollection")
    tracts = []
    for i, feature in enumerate(json_field(doc, "features", "a list", f"{path}: ", default=[])):
        feature = json_typed(feature, "an object", f"{path}: feature {i}")
        where = f"{path}: feature {i}: "
        props = json_typed(feature.get("properties") or {}, "an object", where + "properties")
        at = where + "properties."
        tract_id = json_field(props, "tract_id", "a string or an integer", at)
        income = json_field(props, "per_capita_income", "a number", at)
        if not 0 <= income <= sys.float_info.max:
            raise InputDataError(f"{at}per_capita_income: expected a finite number >= 0, "
                                 f"got {income!r}")
        tracts.append(TractPolygon(tract_id=str(tract_id),
                                   shapes=_shapes(where, feature.get("geometry")),
                                   per_capita_income=float(income)))
    return tracts


class _TractGrid:
    """Uniform grid over the tracts' bounding boxes, about sqrt(len(tracts))
    cells per side. Each cell lists, in input order, the (tract, box) pairs
    whose box overlaps it.

    Boxes and points share one cell function, and it is monotone under IEEE
    rounding, so box_min <= v <= box_max gives
    cell(box_min) <= cell(v) <= cell(box_max): a point's cell lists every
    tract whose box holds the point.
    """

    def __init__(self, tracts: list[TractPolygon]):
        boxes = [t.bounds() for t in tracts]
        self.n = n = max(1, math.isqrt(len(boxes)))
        self.lo = (min(b[0] for b in boxes), min(b[1] for b in boxes))
        self.hi = (max(b[2] for b in boxes), max(b[3] for b in boxes))
        # a zero extent (collinear rings are legal) puts every value in cell 0
        self.step = tuple((hi - lo) / n or 1.0 for lo, hi in zip(self.lo, self.hi))
        self.cells: list[list] = [[] for _ in range(n * n)]
        for t, box in zip(tracts, boxes):
            for i in range(self._cell(box[0], 0), self._cell(box[2], 0) + 1):
                for j in range(self._cell(box[1], 1), self._cell(box[3], 1) + 1):
                    self.cells[i * n + j].append((t, box))

    def _cell(self, v: float, axis: int) -> int:
        return min(int((v - self.lo[axis]) / self.step[axis]), self.n - 1)

    def candidates(self, p: GeoPoint) -> list:
        """(tract, box) pairs of p's cell; none when p is outside the grid."""
        if not (self.lo[0] <= p.lat <= self.hi[0] and self.lo[1] <= p.lon <= self.hi[1]):
            return []
        return self.cells[self._cell(p.lat, 0) * self.n + self._cell(p.lon, 1)]


def join_income(points: list[tuple[str, GeoPoint]],
                tracts: list[TractPolygon]):
    """Assign each point to its containing tract.

    Returns (matches, unmatched): matches as (segment_id, tract_id,
    income) in input point order, first tract in input order wins when
    several contain a point (with a warning). A grid over the tracts'
    bounding boxes picks the tracts to test, and each one's box is tested
    before its polygons.
    """
    if not tracts:
        return [], [segment_id for segment_id, _ in points]
    grid = _TractGrid(tracts)
    matches = []
    unmatched = []
    multi = 0
    for segment_id, p in points:
        containing = [t for t, box in grid.candidates(p)
                      if box[0] <= p.lat <= box[2] and box[1] <= p.lon <= box[3]
                      and any(point_in_polygon(p, shape) for shape in t.shapes)]
        if not containing:
            unmatched.append(segment_id)
            continue
        if len(containing) > 1:
            multi += 1
        chosen = containing[0]
        matches.append((segment_id, chosen.tract_id, chosen.per_capita_income))
    if multi:
        log.warning("join_income: %d points fell in multiple tracts; "
                    "first match kept", multi)
    return matches, unmatched


def quintile_bins(incomes: list[float]) -> QuintileBinning:
    """Cut points at the 20/40/60/80 empirical percentiles.

    Linear interpolation between order statistics, rounded step for step
    as numpy.percentile(method="linear") rounds it; at least 5 distinct
    values required, and no two cut points may tie.
    """
    values = sorted(map(float, incomes))
    if len(set(values)) < 5:
        raise AnalysisError(
            f"need at least 5 distinct income values, got {len(set(values))}")
    cuts = []
    for q in (0.2, 0.4, 0.6, 0.8):
        t, i = math.modf((len(values) - 1) * q)
        a, b = values[int(i)], values[int(i) + 1]
        cuts.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    tied = sorted({a for a, b in zip(cuts, cuts[1:]) if a >= b})
    if tied:
        raise AnalysisError(
            f"income quintile cut points {', '.join(f'{c:g}' for c in cuts)} tie at "
            f"{', '.join(f'{c:g}' for c in tied)}: a fifth or more of the points share "
            "one income; --by-tract takes quintiles over unique tract incomes")
    return QuintileBinning(cut_points=tuple(cuts))


def fixed(value: float, places: int) -> str:
    """value to `places` decimals; one that rounds to zero is written unsigned."""
    text = f"{value:.{places}f}"
    return text.lstrip("-") if float(text) == 0 else text


def regression_table(result: RegressionResult) -> str:
    width = max(len(n) for n in result.coefficient_names)
    lines = [f"{'coefficient'.ljust(width)}  estimate      std. error"]
    for name, est, se in zip(result.coefficient_names, result.estimates,
                             result.standard_errors):
        lines.append(f"{name.ljust(width)}  {est:+.6f}    {se:.6f}")
    lines.append(f"n = {result.n}, R^2 = {fixed(result.r_squared, 4)}")
    return "\n".join(lines)
