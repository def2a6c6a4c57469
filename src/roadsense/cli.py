"""roadsense command line: subcommands for each pipeline stage plus an
end-to-end `run`.

Exit codes: 0 success, 2 configuration error, 3 input-data error,
4 network error, 5 analysis error, 130 interrupted.
"""

from __future__ import annotations

import argparse
import gc
import logging
import math
import sys
from pathlib import Path

from . import __version__, geo_export, labeling, stats
from .errors import ConfigError, RoadsenseError
from .fileio import write_atomic, write_table
from .osm_ingest import filter_roads, read_network
from .pipeline import (
    SETTINGS,
    STAGES,
    RunConfig,
    api_key_or_env,
    check_settings,
    coverage,
    fetch,
    ingest,
    load_config,
    parse_classes,
    run_pipeline,
    sample,
    segment,
)
from .sampler import sample_points
from .segmenter import read_segments_csv, segment_shapes, skipped_ways
from .streetview import read_queries_csv

log = logging.getLogger("roadsense.cli")  # not __main__ under python -m


def _check_flag(ok: bool, flag: str, what: str, value) -> None:
    if not ok:
        raise ConfigError(f"{flag} must be {what}, got {value}")


def cmd_ingest(args) -> int:
    network = ingest(args, None, args.out)
    print(f"{args.out}: {len(network.nodes)} nodes, {len(network.ways)} road ways")
    return 0


def cmd_segment(args) -> int:
    network = read_network(args.network)
    segments = segment(args, network, args.out)
    ways = filter_roads(network, set(args.classes))
    msg = f"{args.out}: {len(segments)} segments from {len(ways)} ways"
    if skipped := skipped_ways(ways, segments):
        msg += f" ({skipped} degenerate ways skipped)"
    print(msg)
    return 0


def cmd_sample(args) -> int:
    segments = read_segments_csv(args.segments)
    plan = sample(args, segments, args.out)
    print(f"{args.out}: {len(plan)} of {len(segments)} segments (seed {args.seed})")
    return 0


def cmd_fetch(args) -> int:
    plan = read_segments_csv(args.plan)
    args.api_key = api_key_or_env(args.api_key)
    records = fetch(args, plan, Path(args.out_dir) / "queries.csv")
    n_ok = sum(1 for r in records if r.status == stats.STATUS_OK)
    print(f"{args.out_dir}/queries.csv: {len(records)} records, {n_ok} OK")
    return 0


def cmd_coverage(args) -> int:
    est = coverage(args, read_queries_csv(args.queries), args.out)
    print(f"coverage: {est.proportion:.4f} "
          f"[{est.ci_low:.4f}, {est.ci_high:.4f}] "
          f"({est.successes}/{est.total} queries successful, "
          f"{est.excluded} excluded)")
    return 0


def cmd_labels(args) -> int:
    if args.threshold is not None:
        _check_flag(args.action == "score" or args.exclude_flagged, "--threshold",
                    "used where workers are scored: score, or aggregate --exclude-flagged",
                    args.action)
        _check_flag(0 <= args.threshold <= 1, "--threshold", "a number in [0, 1]", args.threshold)
    threshold = labeling.DEFAULT_AGREEMENT_THRESHOLD if args.threshold is None else args.threshold
    _check_flag(not args.exclude_flagged or args.action == "aggregate", "--exclude-flagged",
                "used with the aggregate action", args.action)
    records = labeling.parse_labels(args.infile)
    if args.action == "parse":
        # a LabelRecord is a tuple of its fields in the order of the batch columns
        write_table(args.out, labeling.REQUIRED_COLUMNS, records)
        print(f"{args.out}: {len(records)} normalized label rows")
        return 0

    tally = labeling.tally(records)
    if args.action == "score":
        scores = labeling.score_workers(tally, threshold=threshold)
        write_table(args.out, ["worker_id", "n_labels", "agreement", "flagged"],
                    ([s.worker_id, s.n_labels, f"{s.agreement:.4f}", str(s.flagged).lower()]
                     for s in scores))
        n_flagged = sum(1 for s in scores if s.flagged)
        print(f"{args.out}: {len(scores)} workers scored, {n_flagged} flagged")
        return 0

    # aggregate
    excluded = (labeling.flagged_workers(labeling.score_workers(tally, threshold=threshold))
                if args.exclude_flagged else set())
    consensus = labeling.aggregate(tally, excluding=excluded)
    labeling.write_consensus_csv(consensus, args.out)
    print(f"{args.out}: consensus for {len(consensus)} segments"
          + (f" ({len(excluded)} workers excluded)" if excluded else ""))
    return 0


def cmd_summarize(args) -> int:
    _check_flag(args.capture_km is None or args.journey_km is not None, "--capture-km",
                "used with --journey-km", args.capture_km)
    capture_km = stats.DEFAULT_CAPTURE_KM if args.capture_km is None else args.capture_km
    _check_flag(math.isfinite(capture_km) and capture_km > 0, "--capture-km",
                "a positive finite number", capture_km)
    if args.journey_km is not None:
        _check_flag(math.isfinite(args.journey_km) and args.journey_km >= 0, "--journey-km",
                    "a finite number >= 0", args.journey_km)
    consensus = labeling.read_consensus_csv(args.consensus)
    summary = stats.summarize_city(consensus, args.city)
    if args.csv:  # written first, so that a failed write prints no table
        write_table(args.csv, ["city", "n_images"] + [a for a, _ in stats.SUMMARY_COLUMNS],
                    stats.summary_csv_rows([summary]))
    print(stats.summary_table([summary]))
    if args.journey_km is not None:
        rate = summary.proportions.get("potholes")
        if rate is None:
            print("expected potholes: unavailable (no resolvable pothole labels)")
        else:
            count = stats.expected_incidents(rate, args.journey_km, capture_km)
            print(f"expected potholes over {args.journey_km:g} km at "
                  f"{capture_km:g} km per photo: {count:.1f}")
            print("note: the expected count scales with 1/capture-km; the same "
                  "rate gives 2x the count at 0.5 km per photo vs 1 km per photo")
    return 0


def _regression_rows(args):
    from . import analysis
    factors = [f.strip() for f in args.factors.split(",") if f.strip()]
    for i, factor in enumerate(factors):
        _check_flag(factor in ("road_class", "city", "income_quintile")
                    and factor not in factors[:i], "--factors",
                    "road_class, city or income_quintile, each at most once", factor)
    _check_flag(not args.baseline_city or "city" in factors, "--baseline-city",
                "used with the city factor", f"--factors {args.factors}")
    _check_flag(not args.by_tract or "income_quintile" in factors, "--by-tract",
                "used with the income_quintile factor", f"--factors {args.factors}")
    _check_flag(not args.tracts or "income_quintile" in factors, "--tracts",
                "used with the income_quintile factor", f"--factors {args.factors}")
    if "income_quintile" in factors and not args.tracts:
        raise ConfigError("--tracts is required for the income_quintile factor")
    consensus = {c.segment_id: c for c in labeling.read_consensus_csv(args.consensus)}
    plan = read_segments_csv(args.segments)  # segments.csv or plan.csv
    rows = []
    outcomes = []
    skipped_unresolved = 0
    matched_income: dict[str, tuple[str, float]] = {}
    if "income_quintile" in factors:
        tracts = analysis.load_tracts_geojson(args.tracts)
        matches, unmatched = analysis.join_income(sample_points(plan), tracts)
        matched_income = {sid: (tid, income) for sid, tid, income in matches}
        if unmatched:
            log.warning("regress: %d sampled points fell outside every tract",
                        len(unmatched))
        if args.by_tract:
            incomes = sorted({income for _, income in matched_income.values()})
        else:
            incomes = [matched_income[s.segment_id][1] for s in plan
                       if s.segment_id in matched_income and s.segment_id in consensus]
        bins = analysis.quintile_bins(incomes)
    outcome = labeling.ATTRIBUTES.index(args.outcome)
    for s in plan:
        label = consensus.get(s.segment_id)
        if label is None:
            continue
        verdict = label.verdicts[outcome]
        if verdict not in ("yes", "no"):
            skipped_unresolved += 1
            continue
        row = {"road_class": s.highway_class, "city": s.city}
        if "income_quintile" in factors:
            if s.segment_id not in matched_income:
                continue
            row["income_quintile"] = bins.bin_of(matched_income[s.segment_id][1])
        rows.append(row)
        outcomes.append(1.0 if verdict == "yes" else 0.0)
    if skipped_unresolved:
        log.info("regress: %d segments skipped (unresolved %s)",
                 skipped_unresolved, args.outcome)
    return rows, outcomes, factors


def cmd_regress(args) -> int:
    from . import analysis
    rows, outcomes, factors = _regression_rows(args)
    baselines = {"city": args.baseline_city} if args.baseline_city else {}
    matrix, names = analysis.build_design(rows, factors, baselines=baselines)
    result = analysis.ols_fit(matrix, outcomes, names=names, robust=args.robust)
    if args.csv:  # written first, so that a failed write prints no table
        write_table(args.csv, ["coefficient", "estimate", "std_error"],
                    ([n, analysis.fixed(e, 8), analysis.fixed(s, 8)] for n, e, s in
                     zip(result.coefficient_names, result.estimates, result.standard_errors)))
    print(analysis.regression_table(result))
    return 0


def cmd_export(args) -> int:
    plan = read_segments_csv(args.plan)
    shapes = (None if args.network is None  # points, else each segment's line
              else segment_shapes(plan, read_network(args.network), args.target_m))
    write_atomic(args.out, geo_export.export_geojson(plan, shapes))
    print(f"{args.out}: {len(plan)} features ({'points' if shapes is None else 'lines'})")
    return 0


def cmd_run(args) -> int:
    config = load_config(args.config, {k: getattr(args, k) for k in SETTINGS})
    out_dir = run_pipeline(config)
    print(f"run complete: {out_dir}")
    return 0


_FLAGS = {"osm_path": "--osm", "sample_n": "--n"}  # else the field name, dashed
_HELP = {"fixed_time": "pin queried_at timestamps (ISO-8601) for reproducible runs"}
# a stage command needs these; run may take them from its config file
_REQUIRED = ("osm_path", "city", "sample_n", "out_dir")


def _add_setting(p: argparse.ArgumentParser, name: str, **kwargs) -> None:
    """Add the flag of RunConfig field `name`, by default with its default,
    and record it in the command's `settings`, which main checks first."""
    kind = SETTINGS[name]
    kwargs.setdefault("default", getattr(RunConfig, name))
    p.add_argument(_FLAGS.get(name, "--" + name.replace("_", "-")), dest=name,
                   type=parse_classes if kind is tuple else kind, help=_HELP.get(name),
                   **kwargs)
    p.set_defaults(settings=(*(p.get_default("settings") or ()), name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadsense",
        description="Measure road quality from sampled street-level imagery")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--log-level", choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                        default="WARNING", help="lowest level of log line shown (default WARNING)")
    sub = parser.add_subparsers(dest="command", required=True)

    def stage_parser(name, func, help, *inputs):
        """A stage command: its input flags, then one per setting its stage reads."""
        p = sub.add_parser(name, help=help)
        for flag in inputs:
            p.add_argument(flag, required=True)
        for setting in next(s for n, s, _ in STAGES if n == name):
            _add_setting(p, setting, required=setting in _REQUIRED)
        p.set_defaults(func=func)
        return p

    p = stage_parser("ingest", cmd_ingest, "parse an OSM XML extract into a network file")
    p.add_argument("--out", required=True)

    p = stage_parser("segment", cmd_segment, "chunk filtered roads into segments", "--network")
    p.add_argument("--out", required=True)

    p = stage_parser("sample", cmd_sample, "draw a seeded random sample of segments",
                     "--segments")
    p.add_argument("--out", required=True)

    stage_parser("fetch", cmd_fetch, "query imagery availability for a plan", "--plan")

    p = stage_parser("coverage", cmd_coverage, "estimate imagery coverage from queries.csv",
                     "--queries")
    p.add_argument("--out", default=None)

    p = sub.add_parser("labels", help="parse, score, or aggregate label batches")
    p.add_argument("action", choices=["parse", "score", "aggregate"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--exclude-flagged", action="store_true")
    p.set_defaults(func=cmd_labels)

    p = sub.add_parser("summarize", help="per-city condition proportions")
    p.add_argument("--consensus", required=True)
    p.add_argument("--city", required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--journey-km", type=float, default=None,
                   help="also report expected potholes over this journey")
    p.add_argument("--capture-km", type=float, default=None,
                   help=f"km of road each photo covers (default {stats.DEFAULT_CAPTURE_KM})")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("regress", help="linear probability model on condition labels")
    p.add_argument("--outcome", required=True, choices=list(labeling.ATTRIBUTES))
    p.add_argument("--consensus", required=True)
    p.add_argument("--segments", required=True,
                   help="segments.csv or plan.csv carrying road_class and city")
    p.add_argument("--factors", default="road_class,city")
    p.add_argument("--baseline-city", default=None)
    p.add_argument("--tracts", default=None,
                   help="GeoJSON tract polygons (required for income_quintile)")
    p.add_argument("--by-tract", action="store_true",
                   help="compute quintiles over unique tract incomes")
    p.add_argument("--robust", action="store_true", help="HC1 standard errors")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("export", help="emit sampled locations as GeoJSON")
    p.add_argument("--plan", required=True)
    p.add_argument("--network", default=None,
                   help="write each segment's line, re-chunked from this network file")
    _add_setting(p, "target_m")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("run", help="full pipeline: ingest through coverage")
    p.add_argument("--config", default=None,
                   help='JSON file with a "config" object of run settings, such as a run manifest')
    for name in SETTINGS:
        _add_setting(p, name, default=None)
    # run checks its settings once the config file is merged in, in load_config
    p.set_defaults(func=cmd_run, settings=())

    return parser


def main(argv=None) -> int:
    # a command builds a few hundred thousand objects that reference counting
    # frees; collecting every 700 allocations re-scans the live ones for nothing
    gc.set_threshold(100_000)
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    try:
        check_settings(args, getattr(args, "settings", ()))
        return args.func(args)
    except RoadsenseError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("error: interrupted; completed records are kept in queries.csv, "
              "rerun the same command to resume", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
