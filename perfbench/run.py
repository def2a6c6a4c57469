"""The roadsense benchmark: one command that runs a workload end to end
through the ``roadsense`` CLI, checks its outputs and prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each was chosen): ingest-large,
fetch-interrupted, analysis. The seed makes the inputs (``gen.py``); the
program only sees the generated files. Each CLI command runs in its own
subprocess, one after another (a closed loop with one client), with
``--max-concurrency 2``; the imagery stand-in (``standin.py``) runs in one
separate process.

A run repeats the workload, each time after a fresh set-up (at least
twice, then while another repetition fits in ``--seconds``; at least five
set-ups), and reports medians. Run time is reported as the CPU seconds the
commands use (``cpu_s``), not their wall time: on a shared host the wall
time of the same run moves with the time the hypervisor takes from the
machine's cores, while the CPU time the commands get moves much less. Wall time
is printed and is a per-layer metric (``run.wall_s``). ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced repetitions
(``traced_cli.py``) and reports the per-layer metrics and the tracing
overhead. Human-readable lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Work files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

CONCURRENCY = 2                 # client workers, = nproc of the reference machine
FIXED_TIME = "2026-01-01T00:00:00Z"
API_KEY = "perfbench"
RUN_ARTIFACTS = ("network.ndjson", "segments.csv", "plan.csv", "queries.csv", "coverage.json")
MIN_SETUPS = 5
MIN_ITERATIONS = 2              # two repetitions at least, to compare their bytes
UNLIMITED_RATE = 1_000_000      # token bucket out of the way
INTERRUPT_AT = 300              # the stand-in sends SIGINT at this request of legs 1, 2
INTERRUPTED_LEGS = 2
INTERRUPT_RATE = 200            # requests/s, near the client's own pace: bucket waits show
INTERRUPT_DELAY_MS = 2.0        # service delay on fetch-interrupted
MISSING_SITE_EXIT = 70          # traced_cli.py: a wrap site is gone


@dataclass
class Cmd:
    code: int
    wall_s: float
    rss_mb: float
    cpu_s: float


@dataclass
class Iteration:
    traced: bool
    wall_s: float = 0.0
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    digest: str | None = None
    e2e: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)     # counts that can be 0: printed, not in JSON
    layer: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)   # one spans document per command


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("STREETVIEW_API_KEY", None)
    return env


ENV = child_env()


def run_cli(args: list, log: Path, spans: Path | None = None, on_start=None) -> Cmd:
    """One roadsense command; wall time to reaping, peak RSS and CPU time from wait4."""
    if spans is None:
        argv = [sys.executable, "-m", "roadsense.cli", *map(str, args)]
    else:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *map(str, args)]
    with open(log, "ab") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=out, stderr=subprocess.STDOUT)
        try:
            if on_start is not None:
                on_start(proc.pid)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if spans is not None and proc.returncode == MISSING_SITE_EXIT:
        raise SystemExit(f"traced run failed: {log.read_text(errors='replace').strip()}")
    return Cmd(proc.returncode, wall, usage.ru_maxrss / 1024.0,
               usage.ru_utime + usage.ru_stime)


class StandIn:
    """The stand-in imagery server process and its control pipe."""

    def __init__(self, fixture: Path, delay_ms: float, log: Path):
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "standin.py"), str(fixture), "--delay-ms", str(delay_ms)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("stand-in server did not start")
        self.url = f"http://127.0.0.1:{json.loads(line)['port']}"

    def cmd(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self._log.close()


def ratio(sent: int, needed: int) -> float:
    """Requests sent per request needed; needing and sending none reads 1.0."""
    return sent / needed if needed else 1.0 + sent


def artifacts_digest(run_dir: Path, names) -> str | None:
    h = hashlib.sha256()
    for name in names:
        path = run_dir / name
        if not path.is_file():
            return None
        h.update(name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def read_csv(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


# --- fetch workloads: ingest-large, fetch-interrupted ----------------------

class FetchWorkload:
    """``roadsense run`` against the stand-in, in one or more legs."""

    def __init__(self, make_inputs, n: int, rate: float, delay_ms: float = 0.0,
                 interrupted_legs: int = 0):
        self.make_inputs = make_inputs
        self.n = n
        self.rate = rate
        self.delay_ms = delay_ms
        self.interrupted_legs = interrupted_legs

    def setup(self, seed: int, inputs: Path):
        design = self.make_inputs(seed, inputs)
        stand = StandIn(inputs / "fixture.json", self.delay_ms, inputs / "standin.log")
        fixture = json.loads((inputs / "fixture.json").read_text(encoding="utf-8"))
        return {**design, "fixture": fixture, "seed": seed}, stand

    def iteration(self, ctx: dict, stand: StandIn, inputs: Path, it_dir: Path,
                  traced: bool) -> Iteration:
        it = Iteration(traced)
        run_dir = it_dir / "run"
        args = ["run", "--osm", inputs / "city.osm", "--city", gen.CITY, "--out-dir", run_dir,
                "--n", self.n, "--seed", ctx["seed"], "--base-url", stand.url,
                "--api-key", API_KEY, "--max-concurrency", CONCURRENCY,
                "--rate-per-s", self.rate, "--fixed-time", FIXED_TIME]
        before = stand.cmd("reset")
        cmds, rows_kept, legs_interrupted = [], 0, 0
        for leg in range(self.interrupted_legs + 1):
            last = leg == self.interrupted_legs
            stand.cmd(f"arm {0 if last else INTERRUPT_AT}")
            cmds.append(run_cli(
                args, it_dir / "cli.log",
                spans=it_dir / f"spans{leg}.json" if traced else None,
                on_start=None if last else (lambda pid: stand.cmd(f"pid {pid}"))))
            if not last:
                rows_kept += len(read_csv(run_dir / "queries.csv"))
                # the leg counts as interrupted when the stand-in delivered
                # exactly one SIGINT during it and the client then failed
                sent = stand.cmd("stats")["interrupts_sent"]
                legs_interrupted += sent == leg + 1 and cmds[-1].code != 0
        after = stand.cmd("stats")
        it.wall_s = sum(c.wall_s for c in cmds)
        it.rss_mb = max(c.rss_mb for c in cmds)
        it.cpu_s = sum(c.cpu_s for c in cmds)
        counts = network_counts(run_dir, ctx["last_road_node"])
        expected_ok = self._check(ctx, run_dir, cmds[-1].code, counts, it)
        if self.interrupted_legs:
            # an interrupt that never landed turns the workload into plain runs
            it.checks["interrupted"] = legs_interrupted == self.interrupted_legs
            it.attempted += self.interrupted_legs
            it.failed += self.interrupted_legs - legs_interrupted

        req = after["requests"]
        n_req = req["metadata"] + req["image"] + req["other"]
        needed = self.n + expected_ok + ctx["fail_once"]
        it.e2e = {"api_requests_per_needed": ratio(n_req, needed),
                  "billed_images_per_ok_point": ratio(req["image"], expected_ok)}
        it.raw.update(api_requests_per_point=n_req / self.n,
                      duplicate_image_requests=after["duplicate_image_requests"],
                      interrupts_sent=after["interrupts_sent"],
                      minimum_requests=needed, requests=n_req)
        it.layer = {
            **counts,
            "streetview.requests.metadata": req["metadata"],
            "streetview.requests.image": req["image"],
            "streetview.images_per_image_request":
                after["distinct_images"] / req["image"] if req["image"] else 0.0,
            "streetview.rows_kept_after_interrupt": rows_kept,
            "streetview.retries_served": after["faults_served"],
            "server_cpu_s": after["cpu_s"] - before["cpu_s"],
        }
        if traced:
            it.spans = [json.loads((it_dir / f"spans{leg}.json").read_text())
                        for leg in range(len(cmds))]
        return it

    def _check(self, ctx: dict, run_dir: Path, final_code: int, counts: dict,
               it: Iteration) -> int:
        """Fill in the checks and failures; return the plan's expected OK count."""
        fixture = ctx["fixture"]
        locations, default = fixture["locations"], fixture["default_status"]
        plan = read_csv(run_dir / "plan.csv")
        queries = {q["segment_id"]: q for q in read_csv(run_dir / "queries.csv")}
        failed = expected_ok = 0
        for p in plan:
            key = f"{p['start_lat']},{p['start_lon']}"
            want = locations.get(key, {"status": default})
            expected_ok += want["status"] == "OK"
            q = queries.get(p["segment_id"])
            good = (final_code == 0 and q is not None and q["status"] == want["status"]
                    and f"{q['lat']},{q['lon']}" == key)
            if good and want["status"] == "OK":
                good = (q["pano_id"] == want["pano_id"] and bool(q["image_path"])
                        and (run_dir / q["image_path"]).is_file())
            failed += not good
        it.attempted = self.n
        it.failed = min(self.n, failed + self.n - len(plan))
        try:
            cov = json.loads((run_dir / "coverage.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            cov = {}
        # the small extract designs its OK count; the large one's follows
        # from which segments the sampler draws
        designed = ctx.get("ok_points", expected_ok)
        it.checks = {
            "exit_ok": final_code == 0,
            "statuses_match_fixture": failed == 0 and len(plan) == self.n and expected_ok > 0,
            "coverage_exact": (cov.get("successes") == designed == expected_ok
                               and cov.get("total") == self.n
                               and cov.get("proportion") == designed / self.n),
            "network_matches_design": (counts["network.road_ways"] == ctx["road_ways"]
                                       and counts["network.road_nodes"] == ctx["road_nodes"]),
            "segments_match_design": counts["segmenter.segments"] == ctx["segments"],
        }
        it.digest = artifacts_digest(run_dir, RUN_ARTIFACTS)
        return expected_ok


def network_counts(run_dir: Path, last_road_node: int) -> dict:
    """Records in network.ndjson and rows in segments.csv.

    Road nodes are the node records with an id up to ``last_road_node``;
    the extracts number road nodes before all others.
    """
    nodes = road_nodes = road_ways = 0
    network = run_dir / "network.ndjson"
    if network.is_file():
        with open(network, encoding="utf-8") as f:
            try:
                for line in f:
                    record = json.loads(line)
                    if record["type"] == "node":
                        nodes += 1
                        road_nodes += record["id"] <= last_road_node
                    elif record["type"] == "way":
                        road_ways += 1
            except (ValueError, KeyError, TypeError):
                road_ways = -1          # unreadable: fails the design check
    return {"osm_ingest.nodes_kept": nodes,
            "osm_ingest.network_mb": network.stat().st_size / 1e6 if network.is_file() else 0.0,
            "network.road_nodes": road_nodes, "network.road_ways": road_ways,
            "segmenter.segments": len(read_csv(run_dir / "segments.csv"))}


# --- analysis ---------------------------------------------------------------

SIDEWALK_VERDICT = {"yes": "yes", "no": "no", "nosidewalk": "no"}


class AnalysisWorkload:
    """``labels aggregate --exclude-flagged`` then ``regress`` with tracts."""

    def setup(self, seed: int, inputs: Path):
        return gen.analysis_inputs(seed, inputs), None

    def iteration(self, ctx: dict, stand, inputs: Path, it_dir: Path, traced: bool) -> Iteration:
        it = Iteration(traced)
        consensus, coef = it_dir / "consensus.csv", it_dir / "coef.csv"
        log = it_dir / "cli.log"
        cmds = [
            run_cli(["labels", "aggregate", "--in", inputs / "batch.csv", "--exclude-flagged",
                     "--out", consensus], log, spans=it_dir / "spans0.json" if traced else None),
            run_cli(["regress", "--outcome", "potholes", "--consensus", consensus,
                     "--segments", inputs / "plan.csv", "--factors", "road_class,income_quintile",
                     "--tracts", inputs / "tracts.geojson", "--csv", coef],
                    log, spans=it_dir / "spans1.json" if traced else None),
        ]
        it.wall_s = sum(c.wall_s for c in cmds)
        it.rss_mb = max(c.rss_mb for c in cmds)
        it.cpu_s = sum(c.cpu_s for c in cmds)
        segments = ctx["segments"]
        consensus_ok = cmds[0].code == 0 and check_consensus(read_csv(consensus), segments)
        max_err = coefficient_error(read_csv(coef), segments) if cmds[1].code == 0 else None
        coef_ok = max_err is not None and max_err <= 1e-8
        it.checks = {"exit_ok": all(c.code == 0 for c in cmds),
                     "consensus_matches_truth": consensus_ok,
                     "coefficients_match_oracle": coef_ok}
        it.attempted, it.failed = len(cmds), (not consensus_ok) + (not coef_ok)
        it.digest = artifacts_digest(it_dir, ("consensus.csv", "coef.csv"))
        it.e2e = {"api_requests_per_needed": ratio(0, 0),
                  "billed_images_per_ok_point": ratio(0, 0)}
        it.raw = {"api_requests_per_point": 0.0, "duplicate_image_requests": 0,
                  "coefficient_max_abs_error": max_err}
        if traced:
            it.spans = [json.loads((it_dir / f"spans{i}.json").read_text()) for i in range(2)]
        return it


def check_consensus(rows: list[dict], segments: list[dict]) -> bool:
    """Every verdict equals the designed truth, from the three good workers."""
    by_id = {r["segment_id"]: r for r in rows}
    if len(by_id) != len(segments):
        return False
    for seg in segments:
        row, truth = by_id.get(seg["segment_id"]), seg["truth"]
        if row is None or row["n_workers"] != "3":
            return False
        want = {a: truth[a] for a in ("potholes", "cracks", "markings_present",
                                      "markings_clear", "litter")}
        want["sidewalk_paved"] = SIDEWALK_VERDICT[truth["sidewalk"]]
        if any(row[a] != v for a, v in want.items()):
            return False
    return True


def coefficient_error(rows: list[dict], segments: list[dict]) -> float | None:
    """Largest |estimate - oracle| over the coefficients; None if names differ.

    The oracle solves the normal equations with numpy on the designed
    truth: road class dummies against tertiary, income quintiles against
    Q1, cut at the 20/40/60/80 percentiles of the sample's tract incomes
    (a value equal to a cut falls in the lower bin).
    """
    incomes = np.array([s["income"] for s in segments])
    cuts = np.percentile(incomes, [20, 40, 60, 80])
    quintile = (incomes[:, None] > cuts[None, :]).sum(axis=1)
    classes = ("primary", "secondary", "trunk")
    names = (["intercept"] + [f"road_class={c}" for c in classes]
             + [f"income_quintile=Q{q}" for q in range(2, 6)])
    x = np.zeros((len(segments), len(names)))
    x[:, 0] = 1.0
    for i, s in enumerate(segments):
        if s["road_class"] in classes:
            x[i, 1 + classes.index(s["road_class"])] = 1.0
        if quintile[i]:
            x[i, 3 + quintile[i]] = 1.0
    y = np.array([s["truth"]["potholes"] == "yes" for s in segments], dtype=float)
    beta = np.linalg.solve(x.T @ x, x.T @ y)
    got = {r["coefficient"]: float(r["estimate"]) for r in rows}
    if sorted(got) != sorted(names):
        return None
    return max(abs(got[n] - b) for n, b in zip(names, beta))


WORKLOADS = {
    "ingest-large": FetchWorkload(gen.large_extract, n=200, rate=UNLIMITED_RATE),
    "fetch-interrupted": FetchWorkload(gen.small_extract, n=gen.SMALL_WAYS, rate=INTERRUPT_RATE,
                                       delay_ms=INTERRUPT_DELAY_MS,
                                       interrupted_legs=INTERRUPTED_LEGS),
    "analysis": AnalysisWorkload(),
}

# spans each workload must record; none recorded means a wrapper went stale
REQUIRED_SPANS = {
    "ingest-large": ("pipeline.sha256", "osm_ingest.parse_osm", "osm_ingest.write_network",
                     "segmenter.chunk_network", "segmenter.write_segments_csv",
                     "sampler.sample_segments", "sampler.write_plan_csv",
                     "streetview.fetch_all", "streetview.TokenBucket.acquire"),
    "fetch-interrupted": ("streetview.fetch_all", "streetview.TokenBucket.acquire"),
    "analysis": ("labeling.parse_labels", "labeling.score_workers", "labeling.aggregate",
                 "analysis.load_tracts_geojson", "analysis.join_income",
                 "analysis.build_design", "analysis.ols_fit"),
}

# per-layer metric -> (unit, the end-to-end metric it should move, workload)
LAYER_METRICS = {
    "run.wall_s": ("s", "cpu_s, and waits that use no CPU", "all (untraced)"),
    "cli.import_s": ("s", "cpu_s", "analysis, fetch-interrupted"),
    "cli.self_s": ("s", "cpu_s", "analysis"),
    "pipeline.digest_s": ("s", "cpu_s", "ingest-large"),
    "osm_ingest.parse_s": ("s", "cpu_s", "ingest-large"),
    "osm_ingest.parse_rss_mb": ("MB", "peak_rss_mb", "ingest-large"),
    "osm_ingest.nodes_kept": ("count", "peak_rss_mb", "ingest-large"),
    "osm_ingest.write_network_s": ("s", "cpu_s", "ingest-large"),
    "osm_ingest.network_mb": ("MB", "cpu_s", "ingest-large"),
    "segmenter.chunk_s": ("s", "cpu_s", "ingest-large"),
    "segmenter.segments": ("count", "cpu_s", "ingest-large"),
    "segmenter.write_csv_s": ("s", "cpu_s", "ingest-large"),
    "sampler.sample_s": ("s", "cpu_s", "ingest-large"),
    "sampler.write_plan_s": ("s", "cpu_s", "ingest-large"),
    "streetview.fetch_s": ("s", "cpu_s", "fetch-interrupted"),
    "streetview.cpu_ms_per_request": ("ms", "cpu_s", "fetch-interrupted"),
    "streetview.requests.metadata": ("count", "api_requests_per_needed", "fetch-interrupted"),
    "streetview.requests.image": ("count", "billed_images_per_ok_point", "fetch-interrupted"),
    "streetview.images_per_image_request": ("ratio", "billed_images_per_ok_point",
                                            "fetch-interrupted"),
    "streetview.rows_kept_after_interrupt": ("count", "api_requests_per_needed",
                                             "fetch-interrupted"),
    "streetview.retries_served": ("count", "run.wall_s", "fetch-interrupted"),
    "streetview.bucket_wait_s": ("s", "run.wall_s", "fetch-interrupted"),
    "streetview.server_busy_frac": ("ratio", "cpu_s", "fetch-interrupted"),
    "labeling.parse_s": ("s", "cpu_s", "analysis"),
    "labeling.score_s": ("s", "cpu_s", "analysis"),
    "labeling.aggregate_s": ("s", "cpu_s", "analysis"),
    "labeling.rows": ("count", "cpu_s", "analysis"),
    "analysis.load_tracts_s": ("s", "cpu_s", "analysis"),
    "analysis.join_income_s": ("s", "cpu_s", "analysis"),
    "analysis.pip_calls": ("count", "cpu_s", "analysis"),
    "analysis.pip_hit_ratio": ("ratio", "cpu_s", "analysis"),
    "analysis.build_design_s": ("s", "cpu_s", "analysis"),
    "analysis.ols_s": ("s", "cpu_s", "analysis"),
    "trace.overhead_s": ("s", "run.wall_s", "all (traced minus untraced)"),
}
# span whose inclusive time gives each *_s layer metric
SPAN_OF = {
    "pipeline.digest_s": "pipeline.sha256",
    "osm_ingest.parse_s": "osm_ingest.parse_osm",
    "osm_ingest.write_network_s": "osm_ingest.write_network",
    "segmenter.chunk_s": "segmenter.chunk_network",
    "segmenter.write_csv_s": "segmenter.write_segments_csv",
    "sampler.sample_s": "sampler.sample_segments",
    "sampler.write_plan_s": "sampler.write_plan_csv",
    "streetview.fetch_s": "streetview.fetch_all",
    "streetview.bucket_wait_s": "streetview.TokenBucket.acquire",
    "labeling.parse_s": "labeling.parse_labels",
    "labeling.score_s": "labeling.score_workers",
    "labeling.aggregate_s": "labeling.aggregate",
    "analysis.load_tracts_s": "analysis.load_tracts_geojson",
    "analysis.join_income_s": "analysis.join_income",
    "analysis.build_design_s": "analysis.build_design",
    "analysis.ols_s": "analysis.ols_fit",
}

END_TO_END_UNITS = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "api_requests_per_needed": "ratio", "billed_images_per_ok_point": "ratio"}


def self_times(spans: list) -> dict:
    """Per span name: total duration minus the part its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[1] >= 0 and s[3] is not None:
            children[s[1]].append(i)
    out = defaultdict(float)
    for i, (name, _, t0, t1, *_rest) in enumerate(spans):
        if t1 is None:
            continue
        covered, reach = 0.0, t0
        for c0, c1 in sorted((max(t0, spans[c][2]), min(t1, spans[c][3])) for c in children[i]):
            if c1 > reach:
                covered += c1 - max(c0, reach)
                reach = c1
        out[name] += (t1 - t0) - covered
    return dict(out)


def traced_layers(it: Iteration, workload: str) -> tuple[dict, dict]:
    total, calls, selfs, counts = defaultdict(float), Counter(), defaultdict(float), Counter()
    rss_rise = fetch_cpu = import_s = 0.0
    for doc in it.spans:
        import_s += doc["import_s"]
        counts.update(doc["counts"])
        for name, secs in self_times(doc["spans"]).items():
            selfs[name] += secs
        for name, _, t0, t1, c0, c1, r0, r1 in doc["spans"]:
            if t1 is None:
                continue
            total[name] += t1 - t0
            calls[name] += 1
            if name == "osm_ingest.parse_osm":
                rss_rise += r1 - r0
            elif name == "streetview.fetch_all":
                fetch_cpu += c1 - c0
    missing = [n for n in REQUIRED_SPANS[workload] if not calls[n]]
    if workload == "analysis" and not counts["pip_calls"]:
        missing.append("analysis.point_in_polygon")
    if missing:
        raise SystemExit(f"traced run recorded no calls to {', '.join(missing)}: "
                         "a wrapped name is no longer where its caller looks it up")
    layer = {m: total[s] for m, s in SPAN_OF.items()}
    acquires = calls["streetview.TokenBucket.acquire"]
    fetch_s = total["streetview.fetch_all"]
    layer.update({
        "cli.import_s": import_s,
        "cli.self_s": selfs["cli.main"],
        "osm_ingest.parse_rss_mb": rss_rise,
        "streetview.cpu_ms_per_request": 1000.0 * fetch_cpu / acquires if acquires else 0.0,
        "streetview.server_busy_frac":
            it.layer.get("server_cpu_s", 0.0) / fetch_s if fetch_s else 0.0,
        "labeling.rows": counts["label_rows"],
        "analysis.pip_calls": counts["pip_calls"],
        "analysis.pip_hit_ratio":
            counts["pip_hits"] / counts["pip_calls"] if counts["pip_calls"] else 0.0,
    })
    layer.update({k: v for k, v in it.layer.items() if k in LAYER_METRICS})
    for m in LAYER_METRICS:
        layer.setdefault(m, 0)      # a layer this workload does not use
    return layer, {"self_s": dict(selfs), "calls": dict(calls), "inclusive_s": dict(total)}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)

    setups: list[float] = []
    stand = None

    def set_up() -> dict:
        nonlocal stand
        if stand is not None:
            stand.close()
            stand = None
        started = time.perf_counter()
        ctx, stand = workload.setup(seed, inputs)
        setups.append(time.perf_counter() - started)
        return ctx

    iterations: list[Iteration] = []
    try:
        ctx = set_up()
        # warm-up, untimed: byte-compile the package once, as an install does
        subprocess.run([sys.executable, "-c", "import roadsense.cli"], cwd=ROOT, env=ENV,
                       check=True, stdout=subprocess.DEVNULL)
        durations = []
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            if iterations:
                # one set-up per repetition spreads the set-up samples over the run
                ctx = set_up()
            traced = trace and len(iterations) % 2 == 1
            it_dir = work / f"it{len(iterations)}"
            it_dir.mkdir()
            iterations.append(workload.iteration(ctx, stand, inputs, it_dir, traced))
            durations.append(time.perf_counter() - t0)
            if len(iterations) > 1:
                shutil.rmtree(work / f"it{len(iterations) - 2}", ignore_errors=True)
            elapsed = time.perf_counter() - started
            if (len(iterations) >= MIN_ITERATIONS
                    and elapsed + statistics.median(durations) > seconds):
                break
        while len(setups) < MIN_SETUPS:
            set_up()
    finally:
        if stand is not None:
            stand.close()

    digests = {it.digest for it in iterations}
    checks = {k: all(it.checks[k] for it in iterations) for k in iterations[0].checks}
    checks["outputs_identical"] = len(digests) == 1 and None not in digests
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    untraced = [it for it in iterations if not it.traced]
    median = statistics.median
    raw = {k: [it.raw[k] for it in iterations if it.raw.get(k) is not None]
           for k in iterations[0].raw}
    result = {
        "workload": name, "seed": seed, "iterations": len(iterations),
        "traced_iterations": len(iterations) - len(untraced),
        "checks": checks, "correct": all(checks.values()) and failed == 0,
        "attempted": attempted, "failed": failed,
        "e2e": {
            "setup_s": median(setups),
            "cpu_s": median(it.cpu_s for it in untraced),
            "peak_rss_mb": median(it.rss_mb for it in untraced),
            **{k: median(it.e2e[k] for it in untraced) for k in iterations[0].e2e},
        },
        "raw": {k: median(v) if v else None for k, v in raw.items()},
        "wall_s": median(it.wall_s for it in untraced),
        "walls": [it.wall_s for it in iterations],
        "cpus": [it.cpu_s for it in iterations],
        "setups": setups,
    }
    result["raw"]["failed_frac"] = failed / attempted
    if trace:
        traced_its = [it for it in iterations if it.traced]
        per_it = [traced_layers(it, name) for it in traced_its]
        layer = {m: median(p[0][m] for p in per_it)
                 for m in LAYER_METRICS if m not in ("run.wall_s", "trace.overhead_s")}
        layer["run.wall_s"] = result["wall_s"]
        layer["trace.overhead_s"] = median(it.wall_s for it in traced_its) - result["wall_s"]
        result["layer"] = layer
        result["spans"] = per_it[-1][1]
        (work / "trace.json").write_text(json.dumps(
            {"workload": name, "seed": seed, "layer": layer,
             "per_iteration": [p[1] for p in per_it],
             "spans": [doc for it in traced_its for doc in it.spans]}), encoding="utf-8")
    (work / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def report(result: dict, trace: bool) -> dict:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"iterations {result['iterations']} (traced {result['traced_iterations']})")
    for check, ok in result["checks"].items():
        print(f"check {check}: {'pass' if ok else 'FAIL'}")
    raw = result["raw"]
    print(f"failed_frac = {raw['failed_frac']:.6g} ({result['failed']}/{result['attempted']})")
    print(f"api_requests_per_point = {raw['api_requests_per_point']:.6g} requests/point")
    print(f"duplicate_image_requests = {raw['duplicate_image_requests']:g} count")
    for k, v in raw.items():
        if k not in ("failed_frac", "api_requests_per_point", "duplicate_image_requests"):
            print(f"{k} = {v}")
    print(f"wall_s = {result['wall_s']:.6g} s")
    for k, v in result["e2e"].items():
        print(f"{k} = {v:.6g} {END_TO_END_UNITS[k]}")
    if trace:
        print("per-layer metric = value unit  (moves: end-to-end metric @ workload)")
        for m, v in result["layer"].items():
            unit, e2e, where = LAYER_METRICS[m]
            print(f"  {m} = {v:.6g} {unit}  (moves: {e2e} @ {where})")
        selfs = result["spans"]["self_s"]
        print("span self time, last traced iteration:")
        for span in sorted(selfs, key=selfs.get, reverse=True):
            print(f"  {span}: self {selfs[span]:.4f} s, calls {result['spans']['calls'][span]}")
        metrics = {m: {"value": v, "unit": LAYER_METRICS[m][0]}
                   for m, v in result["layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in result["e2e"].items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="roadsense benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "roadsense" / "cli.py").is_file():
        print(f"error: no roadsense sources under {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed % 2 ** 64, args.seconds, bool(args.trace))
    print(json.dumps(report(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
