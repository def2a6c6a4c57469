"""End-to-end run orchestration: ingest -> filter -> segment -> sample ->
fetch -> coverage, with a manifest that makes a completed run directory
self-describing and reruns idempotent.

Stage outputs are plain CSV/JSON files so a run can be inspected, resumed,
or reproduced (the manifest records the resolved configuration, package
version and input digest; the API key is always redacted).
"""

from __future__ import annotations

import difflib
import hashlib
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import __version__
from .errors import ConfigError, InputDataError, RoadsenseError
from .fileio import json_field, json_typed, parse_json, write_atomic
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

    def __post_init__(self):
        # classes sorted, each once; paths absolute, so a manifest works from anywhere
        self.classes = tuple(sorted(set(self.classes)))
        self.osm_path, self.out_dir = (p and os.path.abspath(p)
                                       for p in (self.osm_path, self.out_dir))


# a setting's type is the type of its default: a config file's value must be
# of that type's JSON kind, and is converted to the type, as a flag's is
SETTINGS = {f.name: type(f.default) for f in fields(RunConfig)}
_KINDS = {int: "an integer", float: "a number", str: "a string", tuple: "a list of strings"}


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Resolve a RunConfig: the settings of the JSON file at path, which
    holds them as its "config" object as a run manifest does, then typed
    flag overrides on top; a setting set by neither takes its default.

    The API key comes from the overrides, or else the STREETVIEW_API_KEY
    environment variable, never from the file. Every defect of the file is a
    ConfigError naming the file and the line or the key.
    """
    values: dict = {}
    if path is not None:
        where = f"{path}: key config."
        try:
            doc = parse_json(Path(path).read_bytes(), path)
            data = json_field(doc if isinstance(doc, dict) else {}, "config", "an object",
                              f"{path}: key ")
            # a manifest records "" or "<redacted>" for the key; a key is not echoed
            if data.get("api_key", "") not in ("", "<redacted>"):
                raise ConfigError(f"{where}api_key: a config file holds no API key; "
                                  "give it with --api-key or STREETVIEW_API_KEY")
            for key, value in data.items():
                if key not in SETTINGS:
                    hint = difflib.get_close_matches(key, SETTINGS, n=1)
                    raise ConfigError(f"{where}{key}: not a run setting"
                                      + (f"; did you mean {hint[0]!r}?" if hint else "")
                                      + f" (valid keys: {', '.join(SETTINGS)})")
                kind = SETTINGS[key]
                json_typed(value, _KINDS[kind], where + key)
                values[key] = kind(value)
            values.pop("api_key", None)
        except InputDataError as e:  # not UTF-8 JSON, or a value of another kind
            raise ConfigError(str(e)) from e
        except OverflowError:  # float() of an integer past the largest float
            raise ConfigError(f"{where}{key}: expected a number, got an integer "
                              "too large for one") from None
    values.update((key, value) for key, value in (overrides or {}).items()
                  if value is not None)
    values["api_key"] = api_key_or_env(values.get("api_key"))
    config = RunConfig(**values)
    check_settings(config, SETTINGS)  # the one check of a run's settings
    return config


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
        "config": {**asdict(config), "api_key": "<redacted>" if config.api_key else ""},
        "osm_sha256": osm_digest,
        "artifacts": list(RUN_ARTIFACTS),
    }
    write_atomic(out_dir / MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _is_up_to_date(config: RunConfig, out_dir: Path, osm_digest: str) -> bool:
    manifest_path = out_dir / MANIFEST_NAME
    # an unreadable manifest or queries.csv is left to the stages' own rules
    # (the fetch journal's, for queries.csv), and a lost image (or an OK row
    # whose download failed) leaves the fetch to redo
    try:
        # out_dir naming and the key do not affect artifact content
        recorded = load_config(manifest_path, {"out_dir": config.out_dir})
        digest = parse_json(manifest_path.read_bytes(), manifest_path).get("osm_sha256")
        return (recorded == replace(config, api_key=recorded.api_key) and digest == osm_digest
                and all((out_dir / name).exists() for name in RUN_ARTIFACTS)
                and all(is_final(r, out_dir) for r in read_queries_csv(out_dir / "queries.csv")))
    except (ConfigError, InputDataError, OSError):
        return False


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
    segments = chunk_network(ways, network, settings.target_m)
    if skipped := skipped_ways(ways, segments):
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
    """Execute the full measurement pipeline of a load_config result into config.out_dir.

    Writes network.ndjson, segments.csv, plan.csv, queries.csv,
    coverage.json and the run manifest. Re-running over a completed
    directory is a no-op (no network calls); over a partial directory the
    fetch stage resumes from the records already on disk.
    """
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
