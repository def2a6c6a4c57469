"""Run the roadsense CLI with spans around each layer's public functions.

Usage: ``python traced_cli.py SPANS.json ROADSENSE-ARGS...``

The program itself is unchanged: this script times ``import roadsense.cli``,
replaces the functions listed in WRAP_SITES where their callers look them
up, calls the real ``cli.main`` and, when it returns or raises, writes the
spans kept in memory to SPANS.json. A span is (name, parent index, start,
end, process CPU at start and end, ru_maxrss at start and end). Worker
threads have their own span stack; a span opened on an empty worker stack
takes the innermost open main-thread span as its parent.

A wrap site that no longer exists ends the run with exit code 70 and its
name on stderr, so a refactor cannot turn a layer's numbers into zeros.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import threading
import time

MISSING_SITE_EXIT = 70

# (module the caller looks the name up in, attribute path, span name)
WRAP_SITES = (
    ("roadsense.cli", "run_pipeline", "pipeline.run_pipeline"),
    ("roadsense.pipeline", "_sha256", "pipeline.sha256"),
    ("roadsense.pipeline", "parse_osm", "osm_ingest.parse_osm"),
    ("roadsense.pipeline", "write_network", "osm_ingest.write_network"),
    ("roadsense.pipeline", "filter_roads", "osm_ingest.filter_roads"),
    ("roadsense.pipeline", "chunk_network", "segmenter.chunk_network"),
    ("roadsense.pipeline", "write_segments_csv", "segmenter.write_segments_csv"),
    ("roadsense.pipeline", "sample_segments", "sampler.sample_segments"),
    ("roadsense.pipeline", "write_plan_csv", "sampler.write_plan_csv"),
    ("roadsense.pipeline", "fetch_all", "streetview.fetch_all"),
    ("roadsense.pipeline", "estimate_coverage", "streetview.estimate_coverage"),
    ("roadsense.streetview", "TokenBucket.acquire", "streetview.TokenBucket.acquire"),
    ("roadsense.labeling", "parse_labels", "labeling.parse_labels"),
    ("roadsense.labeling", "score_workers", "labeling.score_workers"),
    ("roadsense.labeling", "aggregate", "labeling.aggregate"),
    ("roadsense.analysis", "load_tracts_geojson", "analysis.load_tracts_geojson"),
    ("roadsense.analysis", "join_income", "analysis.join_income"),
    ("roadsense.analysis", "quintile_bins", "analysis.quintile_bins"),
    ("roadsense.analysis", "build_design", "analysis.build_design"),
    ("roadsense.analysis", "ols_fit", "analysis.ols_fit"),
)
# called thousands of times per command: counted, not spanned
PIP_SITE = ("roadsense.analysis", "point_in_polygon")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts = {"pip_calls": 0, "pip_hits": 0, "label_rows": 0}
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            main = self._main_stack
            parent = stack[-1] if stack else (main[-1] if main else -1)
            rec = [name, parent, time.perf_counter(), None, time.process_time(), None,
                   _maxrss_mb(), None]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3], rec[5], rec[7] = time.perf_counter(), time.process_time(), _maxrss_mb()
        return wrapper

    def count_pip(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hit = fn(*args, **kwargs)
            self.counts["pip_calls"] += 1
            self.counts["pip_hits"] += bool(hit)
            return hit
        return wrapper

    def count_rows(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rows = fn(*args, **kwargs)
            self.counts["label_rows"] += len(rows)
            return rows
        return wrapper

    def install(self) -> None:
        """Replace every wrap site; raise LookupError naming a missing one."""
        for module_name, path, name in WRAP_SITES:
            owner, attr = _resolve(module_name, path)
            fn = self.span(name, getattr(owner, attr))
            if name == "labeling.parse_labels":
                fn = self.count_rows(fn)
            setattr(owner, attr, fn)
        owner, attr = _resolve(*PIP_SITE)
        setattr(owner, attr, self.count_pip(getattr(owner, attr)))


def _resolve(module_name: str, path: str):
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        obj = None
    *parents, attr = path.split(".")
    for part in parents:
        obj = getattr(obj, part, None)
    if obj is None or not hasattr(obj, attr):
        raise LookupError(f"wrap site {module_name}.{path} no longer exists")
    return obj, attr


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    cli = importlib.import_module("roadsense.cli")
    import_s = time.perf_counter() - started
    tracer = Tracer()
    try:
        tracer.install()
    except LookupError as e:
        print(f"traced_cli: {e}", file=sys.stderr)
        return MISSING_SITE_EXIT
    try:
        return tracer.span("cli.main", cli.main)(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"import_s": import_s, "spans": tracer.spans,
                       "counts": tracer.counts}, f)


if __name__ == "__main__":
    sys.exit(main())
