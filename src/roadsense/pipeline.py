"""End-to-end run orchestration: ingest -> filter -> segment -> sample ->
fetch -> coverage, with a manifest that makes a completed run directory
self-describing and reruns idempotent.

Stage outputs are plain CSV/JSON files so a run can be inspected, resumed,
or reproduced (the manifest records the resolved configuration, package
version and input digest; the API key is always redacted).
"""

from __future__ import annotations

import configparser
import difflib
import hashlib
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import __version__
from .errors import ConfigError, InputDataError, RoadsenseError, RowError, SchemaError
from .fileio import decode_text, json_field, parse_json, write_atomic
from .osm_ingest import SAMPLED_ROAD_CLASSES, filter_roads, parse_osm, write_network
from .sampler import sample_segments, write_plan_csv
from .segmenter import chunk_network, skipped_ways, write_segments_csv
from .stats import coverage_json, estimate_coverage
from .streetview import DEFAULT_BASE_URL, _server_of, fetch_all, is_final, read_queries_csv

log = logging.getLogger(__name__)

MANIFEST_NAME = "run_manifest.json"
RUN_ARTIFACTS = ("network.ndjson", "segments.csv", "plan.csv",
                 "queries.csv", "coverage.json")


def parse_classes(raw: str) -> tuple:
    """A comma-separated list of road classes, sorted, each once."""
    return tuple(sorted({c.strip() for c in raw.split(",") if c.strip()}))


def api_key_or_env(api_key: str | None) -> str:
    """The given API key, or else the STREETVIEW_API_KEY environment variable."""
    return api_key or os.environ.get("STREETVIEW_API_KEY", "")


# (name, ok, message) of each checked run setting, in checking order, so the
# first of several bad settings is the one reported; api_key and fixed_time take any value
RULES = (
    ("sample_n", lambda n: n >= 0, "sample size (--n, sample_n) must be >= 0, got {}"),
    ("target_m", lambda m: math.isfinite(m) and m > 0,
     "target length (--target-m, target_m) must be a positive finite number, got {}"),
    ("classes", bool, "classes must name at least one road class"),
    ("max_concurrency", lambda n: n >= 1, "max_concurrency must be >= 1, got {}"),
    ("retries", lambda n: n >= 0, "retries must be >= 0, got {}"),
    ("rate_per_s", lambda r: r > 0, "rate_per_s must be positive, got {}"),
    ("base_url", _server_of, None),  # raises its own message
    ("seed", lambda s: 0 <= s < 2 ** 64, "seed must fit in 64 unsigned bits, got {}"),
    ("city", bool, "city is required"),
    ("osm_path", bool, "osm_path is required"),
    ("out_dir", bool, "out_dir is required"),
)


def check_settings(settings, names) -> None:
    """A ConfigError for the first setting among `names` whose value on
    `settings`, a RunConfig or a command's parsed flags, breaks its rule."""
    for name, ok, message in RULES:
        if name in names and not ok(value := getattr(settings, name)):
            raise ConfigError(message.format(value))


@dataclass
class RunConfig:
    city: str = ""
    osm_path: str = ""
    out_dir: str = ""
    classes: tuple = tuple(sorted(SAMPLED_ROAD_CLASSES))
    target_m: float = 500.0
    sample_n: int = 1000
    seed: int = 0
    base_url: str = DEFAULT_BASE_URL
    api_key: str = ""              # secret: never written to any artifact
    max_concurrency: int = 4
    rate_per_s: float = 10.0
    retries: int = 3
    fixed_time: str = ""           # pin queried_at timestamps when set

    def validate(self) -> "RunConfig":
        check_settings(self, SETTINGS)
        return self


# a setting's type is the type of its default: it sets how an INI value
# converts and which JSON_KINDS a manifest may hold
SETTINGS = {f.name: type(f.default) for f in fields(RunConfig)}
_KINDS = {int: "an integer", float: "a number", str: "a string", tuple: "a list of strings"}


def _convert(key: str, raw: str):
    raw, kind = raw.strip(), SETTINGS[key]
    if kind is tuple:
        return parse_classes(raw)
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key {key} expects {_KINDS[kind]}, got {raw!r}")


def _reject_unknown(key: str) -> None:
    if key in SETTINGS:
        return
    hint = difflib.get_close_matches(key, SETTINGS, n=1)
    suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
    raise ConfigError(f"unknown config key {key!r}{suggestion} "
                      f"(valid keys: {', '.join(SETTINGS)})")


def _read_ini(path: str | Path) -> configparser.ConfigParser:
    """Parse an INI config; a file without a section header reads as [run].
    Every defect is a ConfigError naming the file and the line."""
    text = decode_text(Path(path).read_bytes(), path, error=ConfigError)
    parser, added = configparser.ConfigParser(), 0
    try:
        try:
            parser.read_string(text)
        except configparser.MissingSectionHeaderError:
            parser, added = configparser.ConfigParser(), 1  # sectionless files are fine
            parser.read_string("[run]\n" + text)
    except configparser.DuplicateOptionError as e:
        raise ConfigError(f"{path}: line {e.lineno - added}: option {e.option!r} "
                          f"repeats in section [{e.section}]") from e
    except configparser.DuplicateSectionError as e:
        raise ConfigError(f"{path}: line {e.lineno - added}: "
                          f"section [{e.section}] repeats") from e
    except configparser.ParsingError as e:
        raise ConfigError(f"{path}: line {e.errors[0][0] - added}: "
                          "expected key = value") from e
    return parser


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Resolve a RunConfig: file values, then flag overrides on top.

    The environment is consulted last and only for the secret:
    STREETVIEW_API_KEY fills api_key when nothing else set it.
    """
    values: dict = {}
    if path is not None:
        parser = _read_ini(path)
        for section in parser.sections() + ["DEFAULT"]:
            try:
                items = parser.items(section)
            except configparser.InterpolationError as e:
                raise ConfigError(f"{path}: key {e.option}: bad % interpolation "
                                  "(write a literal % as %%)") from e
            for key, raw in items:
                _reject_unknown(key)
                values[key] = _convert(key, raw)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        _reject_unknown(key)
        values[key] = _convert(key, value) if isinstance(value, str) else value
    values["api_key"] = api_key_or_env(values.get("api_key"))
    return RunConfig(**values).validate()


def config_from_manifest(manifest_path: str | Path, api_key: str = "",
                         out_dir: str | None = None) -> RunConfig:
    """Rebuild the run configuration recorded in a manifest; an InputDataError
    naming the file and the key unless its config holds run settings of their
    JSON types and in their ranges."""
    manifest = parse_json(Path(manifest_path).read_bytes(), manifest_path)
    return _manifest_config(manifest, manifest_path, api_key, out_dir)


def _manifest_config(manifest, manifest_path, api_key: str, out_dir: str | None) -> RunConfig:
    where = f"{manifest_path}: key "
    data = json_field(manifest if isinstance(manifest, dict) else {}, "config", "an object", where)
    where += "config."
    for key in data:
        if key not in SETTINGS:
            raise InputDataError(f"{where}{key}: not a run setting")
        json_field(data, key, _KINDS[SETTINGS[key]], where)
    json_field(data, "classes", _KINDS[tuple], where)
    data = dict(data, classes=tuple(data["classes"]), api_key=api_key_or_env(api_key))
    if out_dir is not None:
        data["out_dir"] = out_dir
    try:
        return RunConfig(**data).validate()
    except ConfigError as e:  # a value of the right type out of its range
        raise InputDataError(f"{manifest_path}: {e}") from e


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        # small reads: freed 1 MiB buffers would raise glibc's mmap threshold and
        # move where parse_osm's growing arrays land, and with them its peak RSS
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(config: RunConfig, out_dir: Path, osm_digest: str) -> None:
    manifest = {
        "tool": "roadsense",
        "version": __version__,
        "config": {**asdict(config), "classes": sorted(config.classes),
                   "api_key": "<redacted>" if config.api_key else ""},
        "osm_sha256": osm_digest,
        "artifacts": list(RUN_ARTIFACTS),
    }
    write_atomic(out_dir / MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _is_up_to_date(config: RunConfig, out_dir: Path, osm_digest: str) -> bool:
    manifest_path = out_dir / MANIFEST_NAME
    try:
        manifest = parse_json(manifest_path.read_bytes(), manifest_path)
        # out_dir naming and the key slot do not affect artifact content
        recorded = _manifest_config(manifest, manifest_path, "", config.out_dir)
    except (OSError, InputDataError):
        return False
    # the manifest records classes sorted
    expected = replace(config, api_key=recorded.api_key, classes=tuple(sorted(config.classes)))
    if recorded != expected or manifest.get("osm_sha256") != osm_digest:
        return False
    if not all((out_dir / name).exists() for name in RUN_ARTIFACTS):
        return False
    # an unreadable queries.csv is left to the fetch journal's rules, and a
    # lost image (or an OK row whose download failed) leaves the fetch to redo
    try:
        records = read_queries_csv(out_dir / "queries.csv")
    except (SchemaError, RowError):
        return False
    return all(is_final(r, out_dir) for r in records)


# Each stage function takes the settings (a RunConfig, or a stage command's
# parsed flags), the previous stage's rows and the path of the artifact it
# writes, and returns the rows that artifact holds, so the next stage gets
# the same input whether it reads the file back or not. It calls the layer
# functions as module globals, where perfbench/traced_cli.py wraps them.
def ingest(settings, _, path):
    network = parse_osm(Path(settings.osm_path), source_name=settings.city)
    write_network(network, path)
    return network


def segment(settings, network, path):
    ways = filter_roads(network, set(settings.classes))
    # run skips degenerate ways and warns; the segment command skips them only
    # with --skip-degenerate, and prints how many itself
    skip = getattr(settings, "skip_degenerate", None)
    segments = chunk_network(ways, network, settings.target_m, skip_degenerate=skip is not False)
    if skip is None and (skipped := skipped_ways(ways, segments)):
        log.warning("segment: skipped %d degenerate ways", skipped)
    write_segments_csv(segments, path)
    return segments


def sample(settings, segments, path):
    """The sample, in draw order."""
    plan = sample_segments(segments, settings.sample_n, settings.seed)
    write_plan_csv(plan, path)
    return plan


def fetch(settings, plan, path):
    """fetch_all journals into out_dir/queries.csv, which is `path`."""
    return fetch_all(plan, settings)


def coverage(settings, records, path):
    est = estimate_coverage(records)
    if path:  # the coverage command writes coverage.json only with --out
        write_atomic(path, coverage_json(est))
    return est


# the stages of a run, in order: (name, the settings it reads, function);
# the stage commands take these settings as flags
STAGES = (
    ("ingest", ("osm_path", "city"), ingest),
    ("segment", ("classes", "target_m"), segment),
    ("sample", ("sample_n", "seed"), sample),
    ("fetch", ("out_dir", "api_key", "base_url", "max_concurrency", "rate_per_s", "retries",
               "fixed_time"), fetch),
    ("coverage", (), coverage),
)


def run_pipeline(config: RunConfig) -> Path:
    """Execute the full measurement pipeline into config.out_dir.

    Writes network.ndjson, segments.csv, plan.csv, queries.csv,
    coverage.json and the run manifest. Re-running over a completed
    directory is a no-op (no network calls); over a partial directory the
    fetch stage resumes from the records already on disk.
    """
    config.validate()
    osm_path = Path(config.osm_path)
    if not osm_path.is_file():
        raise InputDataError(f"stage ingest: OSM file not found: {osm_path}")
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    osm_digest = _sha256(osm_path)

    if _is_up_to_date(config, out_dir, osm_digest):
        log.info("run directory %s is up to date; nothing to do", out_dir)
        print(f"{out_dir}: up to date")
        return out_dir

    result = None
    for (name, _, stage), artifact in zip(STAGES, RUN_ARTIFACTS):
        try:
            result = stage(config, result, out_dir / artifact)
        except (RoadsenseError, OSError) as e:
            raise type(e)(f"stage {name}: {e}") from e
        except Exception as e:
            raise RoadsenseError(f"stage {name}: {e}") from e

    _write_manifest(config, out_dir, osm_digest)
    return out_dir
