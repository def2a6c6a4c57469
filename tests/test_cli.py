import argparse
import json
import logging
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import roadsense
import roadsense.cli
from conftest import fixture_city_xml, parse_osm_text
from roadsense.cli import main
from roadsense.errors import ConfigError
from roadsense.labeling import CONSENSUS_CSV_HEADER
from roadsense.osm_ingest import SAMPLED_ROAD_CLASSES, filter_roads
from roadsense.mockserver import MockStreetViewServer
from roadsense.pipeline import (
    MANIFEST_NAME,
    RULES,
    RUN_ARTIFACTS,
    SETTINGS,
    RunConfig,
    _is_up_to_date,
    _write_manifest,
    check_settings,
    load_config,
    run_pipeline,
)
from roadsense.sampler import sample_segments
from roadsense.segmenter import (
    PLAN_CSV_HEADER,
    SEGMENTS_CSV_HEADER,
    chunk_network,
    read_segments_csv,
    write_plan_csv,
)
from roadsense.streetview import QUERIES_CSV_HEADER, format_location, read_queries_csv

LABEL_HEADER = ("AssignmentId,WorkerId,Input.segment_id,Answer.potholes,Answer.cracks,"
                "Answer.markings_present,Answer.markings_clear,Answer.litter,"
                "Answer.sidewalk")


def planned_points(xml, city, classes, target_m, n, seed):
    """Replicate the deterministic local stages to predict sampled points."""
    network = parse_osm_text(xml, source_name=city)
    ways = filter_roads(network, classes)
    segments = chunk_network(ways, network, target_m)
    return sample_segments(segments, n, seed)


def fixture_for_plan(plan, ok_every=2):
    fixture = {}
    for i, seg in enumerate(plan):
        status = "OK" if i % ok_every == 0 else "ZERO_RESULTS"
        fixture[format_location(seg.start)] = {"status": status}
    return fixture


def run_args(osm_path, out_dir, base_url, n=12, seed=7):
    return ["run", "--osm", str(osm_path), "--city", "fixtureville",
            "--out-dir", str(out_dir), "--n", str(n), "--seed", str(seed),
            "--base-url", base_url, "--api-key", "test-key",
            "--rate-per-s", "100000", "--max-concurrency", "8",
            "--fixed-time", "2026-01-01T00:00:00Z"]


def stage_commands(osm_path, city, d, base_url) -> list[list[str]]:
    """ingest, segment, sample, fetch and coverage chained in directory d,
    with the settings of run_args."""
    return [
        ["ingest", "--osm", str(osm_path), "--city", city, "--out", str(d / "network.ndjson")],
        ["segment", "--network", str(d / "network.ndjson"), "--out", str(d / "segments.csv")],
        ["sample", "--segments", str(d / "segments.csv"), "--n", "12", "--seed", "7",
         "--out", str(d / "plan.csv")],
        ["fetch", "--plan", str(d / "plan.csv"), "--out-dir", str(d), "--base-url", base_url,
         "--api-key", "test-key", "--rate-per-s", "100000", "--max-concurrency", "8",
         "--fixed-time", "2026-01-01T00:00:00Z"],
        ["coverage", "--queries", str(d / "queries.csv"), "--out", str(d / "coverage.json")],
    ]


def cli_process(args, cwd, *python_flags) -> subprocess.CompletedProcess:
    """`python <python_flags> -m roadsense.cli <args>` in cwd, output captured."""
    src = str(Path(roadsense.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, *python_flags, "-m", "roadsense.cli", *args],
                          cwd=cwd, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)


def run_help_flags(capsys) -> list[tuple[str, str]]:
    """(flag, setting) for each option `run --help` lists; a flag's metavar
    is its setting's name in capitals."""
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    return [(m[1], m[2].lower()) for line in capsys.readouterr().out.splitlines()
            if (m := re.match(r"  (--[a-z-]+) ([A-Z_]+)(  |$)", line))]


# a value other than the default for each run setting; paths absolute, as a
# RunConfig holds them
NON_DEFAULT = {"city": "elsewhere", "osm_path": os.path.abspath("b.osm"),
               "out_dir": os.path.abspath("o2"),
               "classes": ("primary", "residential"), "target_m": 250.5, "sample_n": 40,
               "seed": 3, "base_url": "http://127.0.0.1:9", "max_concurrency": 2,
               "rate_per_s": 2.5, "retries": 5, "api_key": "k2",
               "fixed_time": "2026-01-01T00:00:00Z"}


class TestLoadConfig:
    def test_flags_only(self):
        config = load_config(None, {"city": "x", "osm_path": "a.osm",
                                    "out_dir": "out", "sample_n": 5})
        assert config.city == "x"
        assert config.sample_n == 5
        assert config.target_m == 500.0

    def test_flag_overrides_file(self, tmp_path):
        f = tmp_path / "run.json"
        f.write_text(json.dumps({"config": {"city": "filecity", "seed": 7,
                                            "osm_path": "a.osm", "out_dir": "out"}}))
        config = load_config(f, {"seed": 42})
        assert config.seed == 42
        assert config.city == "filecity"
        assert config.sample_n == RunConfig.sample_n  # not in the file: the default

    def test_unknown_key_suggestion(self, tmp_path):
        f = tmp_path / "run.json"
        f.write_text('{"config": {"seeed": 7}}')
        with pytest.raises(ConfigError) as exc:
            load_config(f)
        assert str(exc.value).startswith(
            f"{f}: key config.seeed: not a run setting; did you mean 'seed'?")

    def test_type_mismatch(self, tmp_path):
        f = tmp_path / "run.json"
        f.write_text('{"config": {"city": "x", "osm_path": "a", "out_dir": "o", '
                     '"sample_n": "lots"}}')
        with pytest.raises(ConfigError) as exc:
            load_config(f)
        assert str(exc.value) == f"{f}: key config.sample_n: expected an integer, got 'lots'"

    def test_values_convert_to_the_type_of_their_setting(self, tmp_path):
        f = tmp_path / "run.json"
        f.write_text('{"config": {"city": "x", "osm_path": "a", "out_dir": "o", '
                     '"rate_per_s": 200, "target_m": 500, '
                     '"classes": ["trunk", "primary", "trunk"]}}')
        config = load_config(f)
        assert type(config.rate_per_s) is float and config.rate_per_s == 200.0
        assert type(config.target_m) is float
        assert config.classes == ("primary", "trunk")

    def test_env_key_lowest_priority(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STREETVIEW_API_KEY", "env-key")
        config = load_config(None, {"city": "x", "osm_path": "a", "out_dir": "o"})
        assert config.api_key == "env-key"
        config = load_config(None, {"city": "x", "osm_path": "a", "out_dir": "o",
                                    "api_key": "flag-key"})
        assert config.api_key == "flag-key"

    def test_invariants_checked(self):
        with pytest.raises(ConfigError):
            load_config(None, {"city": "x", "osm_path": "a", "out_dir": "o",
                               "target_m": -5.0})
        with pytest.raises(ConfigError):
            load_config(None, {"city": "x", "osm_path": "a", "out_dir": "o",
                               "sample_n": -1})
        with pytest.raises(ConfigError):
            load_config(None, {"city": "x", "osm_path": "a", "out_dir": "o",
                               "max_concurrency": 0})

    def test_several_bad_settings_report_the_first_in_a_fixed_order(self):
        order = ["sample_n", "target_m", "classes", "max_concurrency", "retries",
                 "rate_per_s", "base_url", "seed", "city", "osm_path", "out_dir"]
        config = RunConfig(sample_n=-1, target_m=0.0, classes=(), max_concurrency=0,
                           retries=-1, rate_per_s=0.0, base_url="x", seed=-1)
        for name in order:
            with pytest.raises(ConfigError) as exc:
                check_settings(config, SETTINGS)
            assert name in str(exc.value)
            setattr(config, name, NON_DEFAULT[name])
        check_settings(config, SETTINGS)

    @pytest.mark.parametrize("line, key", [
        ('"target_m": NaN', "target_m"), ('"target_m": Infinity', "target_m"),
        ('"target_m": -Infinity', "target_m"), ('"classes": []', "classes")])
    def test_run_config_rejects_non_finite_and_empty_settings(
            self, fixture_city_file, tmp_path, capsys, line, key):
        config = tmp_path / "run.json"
        config.write_text(f'{{"config": {{{line}}}}}')
        args = run_args(fixture_city_file, tmp_path / "run", "http://127.0.0.1:9")
        assert main(args + ["--config", str(config)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("content, where", [
        (b"[run]\nseed = 1\n", "line 1 column 2: not valid JSON"),
        (b"city = x\nseed = 1\n", "line 1 column 1: not valid JSON"),
        (b'{"config": {"seed": 1}\n', "line 2 column 1: not valid JSON"),
        (b'{"config": {"seed": 1,\n "city": "caf\xe9"}}\n', "line 2: not UTF-8 text"),
        (b'\xef\xbb\xbf{"config":\n {"\xff": 1}}\n', "line 2: not UTF-8 text"),
    ], ids=["ini-text", "ini-text-without-a-section", "unclosed-object", "not-utf-8",
            "not-utf-8-after-a-byte-order-mark"])
    def test_malformed_config_file_exits_2_naming_file_and_line(
            self, fixture_city_file, tmp_path, capsys, content, where):
        config = tmp_path / "run.json"
        config.write_bytes(content)
        args = run_args(fixture_city_file, tmp_path / "run", "http://127.0.0.1:9")
        assert main(args + ["--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"error: {config}: {where}" in err
        assert not (tmp_path / "run").exists()

    def test_api_key_in_a_config_file_exits_2_without_echoing_it(
            self, fixture_city_file, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text('{"config": {"api_key": "secret"}}')
        before = files_under(tmp_path)
        args = run_args(fixture_city_file, tmp_path / "run", "http://127.0.0.1:9")
        assert main(args + ["--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {config}: key config.api_key: ")
        assert "--api-key" in captured.err
        assert "secret" not in captured.out + captured.err
        assert files_under(tmp_path) == before  # no file, so none holds the key

    def test_config_file_with_a_byte_order_mark(self, fixture_city_file, tmp_path):
        config = tmp_path / "run.json"
        config.write_bytes(b'\xef\xbb\xbf{"config": {"seed": 11}}')
        plan = planned_points(fixture_city_file.read_text(), "fixtureville",
                              set(SAMPLED_ROAD_CLASSES), 500.0, 12, 11)
        with MockStreetViewServer(fixture_for_plan(plan)) as server:
            args = run_args(fixture_city_file, tmp_path / "run", server.base_url)
            args = [a for a in args if a not in ("--seed", "7")]
            assert main(args + ["--config", str(config)]) == 0
        manifest = json.loads((tmp_path / "run" / MANIFEST_NAME).read_text())
        assert manifest["config"]["seed"] == 11

    @pytest.mark.parametrize("manifest, expected", [
        ({"settings": {"city": "x", "osm_path": "a.osm", "out_dir": "o"}}, "key config:"),
        ({"config": [["city", "x"]]}, "key config:"),
        ({"config": "city=x"}, "key config:"),
        (["config"], "key config:"),
        ({"config": {"classes": ["primary"], "colour": "red"}},
         "key config.colour: not a run setting (valid keys: city, "),
        ({"config": {"classes": ["primary"], "target_m": "500"}}, "key config.target_m:"),
        ({"config": {"classes": ["primary"], "seed": True}}, "key config.seed:"),
        ({"config": {"classes": ["primary"], "sample_n": 1.5}}, "key config.sample_n:"),
        ({"config": {"classes": ["primary"], "base_url": 7}}, "key config.base_url:"),
        ({"config": {"classes": ["primary", 1]}}, "key config.classes:"),
        ({"config": {"classes": "primary"}}, "key config.classes:"),
        ({"config": {"target_m": 10 ** 400}},
         "key config.target_m: expected a number, got an integer too large for one"),
        ({"config": {"api_key": 12345}}, "key config.api_key: a config file holds no API key"),
        ({"config": {"classes": ["primary"], "sample_n": -1}},
         "sample size (--n, sample_n) must be >= 0, got -1"),
        ({"config": {"classes": ["primary"], "target_m": math.nan}},
         "target length (--target-m, target_m) must be a positive finite number, got nan"),
        ({"config": {"classes": []}}, "classes must name at least one road class"),
        ({"config": {"classes": ["primary"], "city": ""}}, "city is required"),
    ], ids=["lacks-config", "config-is-a-list", "config-is-a-string",
            "manifest-is-a-list", "unknown-key", "target-m-is-a-string", "seed-is-true",
            "sample-n-is-a-float", "base-url-is-a-number", "class-is-a-number",
            "classes-is-a-string", "target-m-past-the-float-range", "api-key-is-a-number",
            "sample-n-is-negative", "target-m-is-nan", "classes-is-empty", "city-is-empty"])
    def test_malformed_config_file_is_a_config_error_naming_the_key(
            self, tmp_path, manifest, expected):
        path = tmp_path / MANIFEST_NAME
        path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        # a value of its kind out of its range gives its rule's message alone
        where = f"{path}: " if expected.startswith("key ") else ""
        assert str(exc.value).startswith(where + expected)
        assert "12345" not in str(exc.value)

    def test_run_help_lists_one_flag_per_setting(self, capsys):
        names = [name for _, name in run_help_flags(capsys)]
        assert sorted(names) == sorted([*SETTINGS, "config"])

    @pytest.mark.parametrize("name", SETTINGS)
    def test_a_setting_reads_the_same_from_file_flag_and_manifest(
            self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.delenv("STREETVIEW_API_KEY", raising=False)
        value = NON_DEFAULT[name]
        assert value != getattr(RunConfig, name)
        settings = {"city": "x", "osm_path": "a.osm", "out_dir": "o", name: value}
        flags = dict((setting, flag) for flag, setting in run_help_flags(capsys))
        seen = []
        monkeypatch.setattr(roadsense.cli, "run_pipeline",
                            lambda config: seen.append(config) or Path(config.out_dir))
        assert main(["run", *(a for k, v in settings.items() for a in
                              (flags[k], ",".join(v) if isinstance(v, tuple) else str(v)))]) == 0
        from_flags, = seen
        assert getattr(from_flags, name) == value

        # a file holds every setting but the API key, which a flag gives
        key = {"api_key": settings.pop("api_key", None)}
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"config": settings}))
        assert load_config(config, key) == from_flags
        _write_manifest(from_flags, tmp_path, "0" * 64)
        assert load_config(tmp_path / MANIFEST_NAME, key) == from_flags
        assert load_config(tmp_path / MANIFEST_NAME).api_key == ""  # not "<redacted>"

    def test_classes_parsed(self, monkeypatch):
        seen = []
        monkeypatch.setattr(roadsense.cli, "run_pipeline",
                            lambda config: seen.append(config.classes) or Path(config.out_dir))
        for classes in ("trunk, primary", "primary,trunk,primary"):  # each class once
            assert main(["run", "--city", "x", "--osm", "a", "--out-dir", "o",
                         "--classes", classes]) == 0
        assert seen == [("primary", "trunk")] * 2

    def test_flags_are_taken_as_given(self, tmp_path, monkeypatch):
        # argparse has typed run's flags, and a config file's strings are JSON
        # strings: neither is stripped
        seen = []
        monkeypatch.setattr(roadsense.cli, "run_pipeline",
                            lambda config: seen.append(config) or Path(config.out_dir))
        config = tmp_path / "run.json"
        config.write_text('{"config": {"city": " y ", "osm_path": "a.osm", "out_dir": "o"}}')
        assert main(["run", "--config", str(config), "--city", " x ", "--fixed-time", " t "]) == 0
        assert (seen[0].city, seen[0].fixed_time) == (" x ", " t ")
        assert load_config(config).city == " y "


class TestRunPipeline:
    def test_happy_path_writes_all_artifacts(self, fixture_city_file, tmp_path, capsys):
        xml = fixture_city_file.read_text()
        plan = planned_points(xml, "fixtureville", set(SAMPLED_ROAD_CLASSES), 500.0, 12, 7)
        out_dir = tmp_path / "rundir"
        with MockStreetViewServer(fixture_for_plan(plan)) as server:
            code = main(run_args(fixture_city_file, out_dir, server.base_url))
        assert code == 0
        for name in RUN_ARTIFACTS:
            assert (out_dir / name).exists(), name
        assert (out_dir / MANIFEST_NAME).exists()
        coverage = json.loads((out_dir / "coverage.json").read_text())
        assert coverage["successes"] == 6
        assert coverage["total"] == 12

    def test_rerun_is_noop_without_network(self, fixture_city_file, tmp_path, capsys):
        xml = fixture_city_file.read_text()
        plan = planned_points(xml, "fixtureville", set(SAMPLED_ROAD_CLASSES), 500.0, 12, 7)
        out_dir = tmp_path / "rundir"
        with MockStreetViewServer(fixture_for_plan(plan)) as server:
            assert main(run_args(fixture_city_file, out_dir, server.base_url)) == 0
            before = {name: (out_dir / name).read_bytes() for name in RUN_ARTIFACTS}
            requests_before = server.request_count
            capsys.readouterr()
            assert main(run_args(fixture_city_file, out_dir, server.base_url)) == 0
            assert server.request_count == requests_before
        assert "up to date" in capsys.readouterr().out
        after = {name: (out_dir / name).read_bytes() for name in RUN_ARTIFACTS}
        assert after == before

    def test_log_level_info_shows_the_up_to_date_line(self, fixture_city_file, tmp_path):
        xml = fixture_city_file.read_text()
        plan = planned_points(xml, "fixtureville", set(SAMPLED_ROAD_CLASSES), 500.0, 12, 7)
        out_dir = tmp_path / "rundir"
        with MockStreetViewServer(fixture_for_plan(plan)) as server:
            args = run_args(fixture_city_file, out_dir, server.base_url)
            assert main(args) == 0
        src = str(Path(roadsense.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}

        def rerun(*flags):
            return subprocess.run([sys.executable, "-m", "roadsense.cli", *flags, *args],
                                  env=env, check=True, capture_output=True, text=True)
        info = rerun("--log-level", "INFO")
        assert f"INFO roadsense.pipeline: run directory {out_dir} is up to date" in info.stderr
        assert "up to date" in info.stdout
        assert "INFO" not in rerun().stderr

    def test_rerun_fetches_a_lost_image_again(self, fixture_city_file, tmp_path, capsys):
        xml = fixture_city_file.read_text()
        plan = planned_points(xml, "fixtureville", set(SAMPLED_ROAD_CLASSES), 500.0, 12, 7)
        out_dir = tmp_path / "rundir"
        with MockStreetViewServer(fixture_for_plan(plan)) as server:
            assert main(run_args(fixture_city_file, out_dir, server.base_url)) == 0
            before = {name: (out_dir / name).read_bytes() for name in RUN_ARTIFACTS}
            lost = sorted((out_dir / "images").iterdir())[0]
            lost.unlink()
            requests_before = server.request_count
            capsys.readouterr()
            assert main(run_args(fixture_city_file, out_dir, server.base_url)) == 0
            again = server.requested_locations[requests_before:]
        assert "up to date" not in capsys.readouterr().out
        # the metadata query and the one image request for that point
        assert len(again) == 2 and again[0] == again[1]
        assert lost.is_file()
        after = {name: (out_dir / name).read_bytes() for name in RUN_ARTIFACTS}
        assert after == before

    def test_rerun_resumes_over_an_emptied_queries_csv(self, fixture_city_file, tmp_path,
                                                      capsys):
        xml = fixture_city_file.read_text()
        plan = planned_points(xml, "fixtureville", set(SAMPLED_ROAD_CLASSES), 500.0, 12, 7)
        out_dir = tmp_path / "rundir"
        with MockStreetViewServer(fixture_for_plan(plan)) as server:
            assert main(run_args(fixture_city_file, out_dir, server.base_url)) == 0
            before = {name: (out_dir / name).read_bytes()
                      for name in ("queries.csv", "coverage.json")}
            (out_dir / "queries.csv").write_bytes(b"")
            capsys.readouterr()
            assert main(run_args(fixture_city_file, out_dir, server.base_url)) == 0
        assert "up to date" not in capsys.readouterr().out
        after = {name: (out_dir / name).read_bytes() for name in before}
        assert after == before

    def test_rerun_over_a_malformed_queries_row_exits_3(self, fixture_city_file, tmp_path,
                                                       capsys):
        xml = fixture_city_file.read_text()
        plan = planned_points(xml, "fixtureville", set(SAMPLED_ROAD_CLASSES), 500.0, 12, 7)
        out_dir = tmp_path / "rundir"
        with MockStreetViewServer(fixture_for_plan(plan)) as server:
            assert main(run_args(fixture_city_file, out_dir, server.base_url)) == 0
            queries = out_dir / "queries.csv"
            queries.write_text(queries.read_text().replace(",OK,", ",MAYBE,", 1))
            capsys.readouterr()
            assert main(run_args(fixture_city_file, out_dir, server.base_url)) == 3
        assert "queries.csv: line" in capsys.readouterr().err

    def test_rerun_over_a_queries_csv_that_is_not_utf8_exits_3_from_the_fetch_stage(
            self, fixture_city_file, tmp_path, capsys):
        # the up-to-date check leaves an unreadable journal to the fetch stage
        xml = fixture_city_file.read_text()
        plan = planned_points(xml, "fixtureville", set(SAMPLED_ROAD_CLASSES), 500.0, 12, 7)
        out_dir = tmp_path / "rundir"
        with MockStreetViewServer(fixture_for_plan(plan)) as server:
            assert main(run_args(fixture_city_file, out_dir, server.base_url)) == 0
            queries = out_dir / "queries.csv"
            queries.write_bytes(queries.read_bytes() + b"\xff\xfe,bad\n")
            capsys.readouterr()
            assert main(run_args(fixture_city_file, out_dir, server.base_url)) == 3
        assert capsys.readouterr().err == (
            f"error: stage fetch: {queries}: line 14: not UTF-8 text (invalid start byte)\n")

    def test_manifest_reproduces_run_byte_identically(self, fixture_city_file, tmp_path):
        xml = fixture_city_file.read_text()
        plan = planned_points(xml, "fixtureville", set(SAMPLED_ROAD_CLASSES), 500.0, 12, 7)
        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        with MockStreetViewServer(fixture_for_plan(plan)) as server:
            assert main(run_args(fixture_city_file, out_a, server.base_url)) == 0
            assert main(["run", "--config", str(out_a / MANIFEST_NAME), "--out-dir", str(out_b),
                         "--api-key", "test-key"]) == 0
        for name in RUN_ARTIFACTS:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_a_manifest_reproduces_its_run_from_another_directory(
            self, fixture_city_file, tmp_path, monkeypatch):
        # the run names its paths relative to a/; the manifest records them
        # absolute, so the reproduction from a/'s parent finds the extract
        a = tmp_path / "a"
        a.mkdir()
        (a / "city.osm").write_bytes(fixture_city_file.read_bytes())
        plan = planned_points(fixture_city_file.read_bytes(), "fixtureville",
                              set(SAMPLED_ROAD_CLASSES), 500.0, 12, 7)
        with MockStreetViewServer(fixture_for_plan(plan)) as server:
            monkeypatch.chdir(a)
            assert main(run_args("city.osm", "out", server.base_url)) == 0
            monkeypatch.chdir(tmp_path)
            assert main(["run", "--config", "a/out/run_manifest.json", "--out-dir", "b",
                         "--api-key", "k"]) == 0
        config = json.loads((a / "out" / MANIFEST_NAME).read_text())["config"]
        assert (config["osm_path"], config["out_dir"]) == (str(a / "city.osm"), str(a / "out"))
        for name in RUN_ARTIFACTS:
            assert (a / "out" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_a_run_configured_by_file_is_up_to_date_for_the_same_flags(
            self, fixture_city_file, tmp_path, capsys):
        xml = fixture_city_file.read_text()
        plan = planned_points(xml, "fixtureville", set(SAMPLED_ROAD_CLASSES), 500.0, 12, 7)
        out_dir = tmp_path / "rundir"
        with MockStreetViewServer(fixture_for_plan(plan)) as server:
            flags = run_args(fixture_city_file, out_dir, server.base_url)
            # run_args's settings, with float settings written as integers and
            # the classes out of order, one of them twice
            settings = {"city": "fixtureville", "osm_path": str(fixture_city_file),
                        "out_dir": str(out_dir), "sample_n": 12, "seed": 7,
                        "base_url": server.base_url, "rate_per_s": 100000,
                        "max_concurrency": 8, "fixed_time": "2026-01-01T00:00:00Z",
                        "target_m": 500, "classes": ["trunk", *SAMPLED_ROAD_CLASSES]}
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"config": settings}))
            assert main(["run", "--config", str(config), "--api-key", "test-key"]) == 0
            manifest = (out_dir / MANIFEST_NAME).read_bytes()
            requests = server.request_count
            capsys.readouterr()
            assert main(flags) == 0
            assert "up to date" in capsys.readouterr().out
            assert server.request_count == requests
            # written again from the flags, the manifest has the same bytes
            (out_dir / MANIFEST_NAME).unlink()
            assert main(flags) == 0
            assert server.request_count == requests
        assert (out_dir / MANIFEST_NAME).read_bytes() == manifest

    def test_config_changes_invalidate_up_to_date(self, fixture_city_file, tmp_path):
        xml = fixture_city_file.read_text()
        plan7 = planned_points(xml, "fixtureville", set(SAMPLED_ROAD_CLASSES), 500.0, 12, 7)
        plan8 = planned_points(xml, "fixtureville", set(SAMPLED_ROAD_CLASSES), 500.0, 12, 8)
        out_dir = tmp_path / "rundir"
        fixture = {**fixture_for_plan(plan7), **fixture_for_plan(plan8)}
        with MockStreetViewServer(fixture) as server:
            assert main(run_args(fixture_city_file, out_dir, server.base_url, seed=7)) == 0
            plan_bytes = (out_dir / "plan.csv").read_bytes()
            before = server.request_count
            assert main(run_args(fixture_city_file, out_dir, server.base_url, seed=8)) == 0
            assert server.request_count > before
        assert (out_dir / "plan.csv").read_bytes() != plan_bytes

    @pytest.mark.parametrize("name", sorted(SETTINGS))
    def test_up_to_date_ignores_only_out_dir_the_key_and_the_order_of_classes(
            self, tmp_path, name):
        config = RunConfig(city="x", osm_path="a.osm", out_dir=str(tmp_path),
                           classes=("trunk", "primary"))
        _write_manifest(config, tmp_path, "digest")
        for artifact in RUN_ARTIFACTS:
            (tmp_path / artifact).write_text(QUERIES_CSV_HEADER + "\n")
        assert _is_up_to_date(config, tmp_path, "digest")
        assert _is_up_to_date(replace(config, classes=("primary", "trunk")), tmp_path, "digest")
        assert not _is_up_to_date(config, tmp_path, "another digest")
        changed = replace(config, **{name: NON_DEFAULT[name]})
        assert _is_up_to_date(changed, tmp_path, "digest") == (name in ("out_dir", "api_key"))

    def test_rerun_of_a_config_with_unsorted_classes_is_up_to_date(
            self, fixture_city_file, tmp_path, capsys):
        with MockStreetViewServer({"__default__": {"status": "OK"}}) as server:
            config = RunConfig(city="fixtureville", osm_path=str(fixture_city_file),
                               out_dir=str(tmp_path / "run"), classes=("trunk", "primary"),
                               sample_n=12, seed=7, base_url=server.base_url, api_key="k",
                               rate_per_s=100000.0, fixed_time="2026-01-01T00:00:00Z")
            run_pipeline(config)
            before = server.request_count
            capsys.readouterr()
            run_pipeline(config)
            assert server.request_count == before
        assert capsys.readouterr().out == f"{tmp_path / 'run'}: up to date\n"

    @pytest.mark.parametrize("stage, answer, code, message", [
        ("ingest", None, 3, "malformed OSM XML at line 2"),
        ("fetch", {"status": "REQUEST_DENIED"}, 4, "REQUEST_DENIED; check the API key"),
        ("coverage", {"status": "OK", "fail_first": 1}, 5, "no usable records"),
    ], ids=["malformed-osm", "request-denied-storm", "every-answer-a-transport-error"])
    def test_a_failing_stage_prefixes_its_name(self, fixture_city_file, tmp_path, capsys,
                                                stage, answer, code, message):
        plan = planned_points(fixture_city_file.read_text(), "fixtureville",
                              set(SAMPLED_ROAD_CLASSES), 500.0, 30, 7)
        assert len(plan) == 30
        osm = fixture_city_file
        if answer is None:
            osm = tmp_path / "bad.osm"
            osm.write_text("<osm><node id='1' lat='0' lon='0'>\n<way>")
        fixture = {format_location(s.start): answer for s in plan} if answer else {}
        with MockStreetViewServer(fixture) as server:
            args = run_args(osm, tmp_path / "run", server.base_url, n=30)
            assert main(args + ["--retries", "0"]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: stage {stage}: ") and message in err

    @pytest.mark.parametrize("manifest", [b'["config"]', b'{"config": "x"}', b"\xff"],
                             ids=["list", "config-is-a-string", "not-utf-8"])
    def test_rerun_over_a_malformed_manifest_runs_again(self, fixture_city_file, tmp_path,
                                                        manifest):
        plan = planned_points(fixture_city_file.read_text(), "fixtureville",
                              set(SAMPLED_ROAD_CLASSES), 500.0, 12, 7)
        out_dir = tmp_path / "rundir"
        with MockStreetViewServer(fixture_for_plan(plan)) as server:
            assert main(run_args(fixture_city_file, out_dir, server.base_url)) == 0
            (out_dir / MANIFEST_NAME).write_bytes(manifest)
            assert main(run_args(fixture_city_file, out_dir, server.base_url)) == 0
        assert json.loads((out_dir / MANIFEST_NAME).read_text())["config"]["seed"] == 7

    def test_rerun_with_other_target_m_queries_moved_points_again(self, fixture_city_file,
                                                                  tmp_path):
        # a segment id such as "<way>#1" starts elsewhere under another target_m
        out_dir = tmp_path / "rundir"
        with MockStreetViewServer({"__default__": {"status": "OK"}}) as server:
            for target_m in ("500", "300"):
                args = run_args(fixture_city_file, out_dir, server.base_url, n=100)
                assert main(args + ["--target-m", target_m]) == 0
        planned = {s.segment_id: format_location(s.start)
                   for s in read_segments_csv(out_dir / "plan.csv")}
        recorded = {r.segment_id: format_location(r.location)
                    for r in read_queries_csv(out_dir / "queries.csv")}
        assert recorded == planned

    def test_api_key_never_written(self, fixture_city_file, tmp_path):
        xml = fixture_city_file.read_text()
        plan = planned_points(xml, "fixtureville", set(SAMPLED_ROAD_CLASSES), 500.0, 12, 7)
        out_dir = tmp_path / "rundir"
        secret = "super-secret-key-98765"
        with MockStreetViewServer(fixture_for_plan(plan)) as server:
            args = run_args(fixture_city_file, out_dir, server.base_url)
            args[args.index("test-key")] = secret
            assert main(args) == 0
        for path in out_dir.rglob("*"):
            if path.is_file():
                assert secret.encode() not in path.read_bytes(), path

    def test_missing_osm_exits_3(self, tmp_path, capsys):
        code = main(["run", "--osm", str(tmp_path / "nope.osm"), "--city", "x",
                     "--out-dir", str(tmp_path / "o"), "--api-key", "k"])
        assert code == 3
        assert "stage" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# (stage command, setting, a value out of range) for every checked setting
# that a stage command takes
BAD_STAGE_SETTINGS = [
    ("ingest", "city", ""),
    ("ingest", "osm_path", ""),
    *(("segment", "classes", v) for v in ("", " , ")),
    *((command, "target_m", v) for command in ("segment", "export")
      for v in ("nan", "inf", "0", "-1")),
    *(("sample", name, v)
      for name, v in (("sample_n", "-1"), ("seed", "-1"), ("seed", str(2 ** 64)))),
    ("fetch", "out_dir", ""),
    *(("fetch", "rate_per_s", v) for v in ("0", "-1", "nan")),
    ("fetch", "max_concurrency", "0"),
    ("summarize", "city", ""),
    ("fetch", "retries", "-1"),
    *(("fetch", "base_url", v) for v in (
        "maps.googleapis.com", "127.0.0.1:8080", "ftp://x", "http://", "http://h:port",
        "https://h:99999", "http://[::1", "http://h/a b", "http://h/\u00fc", "http://a..b")),
]


def files_under(path: Path) -> list:
    return sorted(p.relative_to(path) for p in path.rglob("*"))


class TestStageSettings:
    @pytest.mark.parametrize("command, name, value", BAD_STAGE_SETTINGS,
                             ids=[f"{c}-{n}={v!r}" for c, n, v in BAD_STAGE_SETTINGS])
    def test_bad_setting_exits_2_with_runs_message_before_any_work(
            self, fixture_city_file, tmp_path, capsys, monkeypatch, command, name, value):
        net, segments, plan, consensus = (tmp_path / f for f in
                                          ("net.ndjson", "s.csv", "p.csv", "c.csv"))
        main(["ingest", "--osm", str(fixture_city_file), "--city", "f", "--out", str(net)])
        main(["segment", "--network", str(net), "--out", str(segments)])
        main(["sample", "--segments", str(segments), "--n", "2", "--out", str(plan)])
        consensus.write_text(f"{CONSENSUS_CSV_HEADER}\np0,yes,no,yes,yes,no,yes,1\n")
        capsys.readouterr()
        out = tmp_path / "out"
        cwd = tmp_path / "cwd"  # where an empty path would write
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        flag = dict((setting, f) for f, setting in run_help_flags(capsys))[name]
        before = files_under(tmp_path)
        with MockStreetViewServer({"__default__": {"status": "OK"}}) as server:
            command, *options = command.split()
            inputs = {
                "ingest": ["--osm", fixture_city_file, "--city", "f", "--out", out],
                "segment": ["--network", net, "--out", out],
                "export": ["--plan", plan, "--network", net, "--out", out],
                "sample": ["--segments", segments, "--n", "2", "--out", out],
                "fetch": ["--plan", plan, "--out-dir", out, "--api-key", "k",
                          "--base-url", server.base_url],
                "summarize": ["--consensus", consensus, "--csv", out],
            }[command]
            assert main([command, *map(str, inputs), *options, flag, value]) == 2
            err = capsys.readouterr().err
            assert main(run_args(fixture_city_file, out, server.base_url) + [flag, value]) == 2
            assert capsys.readouterr().err == err
            assert server.request_count == 0
        assert err.startswith("error: ") and name in err
        assert files_under(tmp_path) == before

    def test_every_setting_has_a_rule_and_every_stage_setting_is_checked(self):
        ruled = [name for name, _, _ in RULES]
        assert sorted(ruled + ["api_key", "fixed_time"]) == sorted(SETTINGS)
        parser = roadsense.cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for command, p in commands.choices.items():
            if command == "run":  # run checks its settings in load_config
                continue
            # a flag named like a setting is one (added by _add_setting)
            named = {a.dest for a in p._actions if a.dest in SETTINGS}
            # main checks the settings a command took before it runs
            taken = set(p.get_default("settings") or ())
            assert taken == named, command
            # and the table above shows that check for each of them
            rows = {n for c, n, _ in BAD_STAGE_SETTINGS if c.split()[0] == command}
            assert rows == taken & set(ruled), command


class TestStageCommands:
    def test_ingest_segment_sample_export(self, fixture_city_file, tmp_path, capsys):
        net_file = tmp_path / "net.ndjson"
        seg_file = tmp_path / "segments.csv"
        plan_file = tmp_path / "plan.csv"
        geo_file = tmp_path / "points.geojson"
        lines_file = tmp_path / "lines.geojson"

        assert main(["ingest", "--osm", str(fixture_city_file), "--city", "f",
                     "--out", str(net_file)]) == 0
        assert main(["segment", "--network", str(net_file),
                     "--classes", "trunk,primary,secondary,tertiary",
                     "--target-m", "500", "--out", str(seg_file)]) == 0
        assert main(["sample", "--segments", str(seg_file), "--n", "10",
                     "--seed", "3", "--out", str(plan_file)]) == 0
        capsys.readouterr()
        assert main(["export", "--plan", str(plan_file), "--out", str(geo_file)]) == 0
        assert capsys.readouterr().out == f"{geo_file}: 10 features (points)\n"
        doc = json.loads(geo_file.read_text())
        assert len(doc["features"]) == 10
        assert all(f["geometry"]["type"] == "Point" for f in doc["features"])

        assert main(["export", "--plan", str(plan_file), "--network", str(net_file),
                     "--target-m", "500", "--out", str(lines_file)]) == 0
        assert capsys.readouterr().out == f"{lines_file}: 10 features (lines)\n"
        doc = json.loads(lines_file.read_text())
        assert len(doc["features"]) == 10
        assert all(f["geometry"]["type"] == "LineString" for f in doc["features"])

    def test_export_of_an_empty_plan_with_network_says_lines(self, fixture_city_file,
                                                             tmp_path, capsys):
        net_file, plan_file, out = (tmp_path / f for f in ("net.ndjson", "p.csv", "x.geojson"))
        main(["ingest", "--osm", str(fixture_city_file), "--city", "f", "--out", str(net_file)])
        plan_file.write_text(PLAN_CSV_HEADER + "\n")
        capsys.readouterr()
        assert main(["export", "--plan", str(plan_file), "--network", str(net_file),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"{out}: 0 features (lines)\n"
        assert out.read_text() == '{"type":"FeatureCollection","features":[]}\n'

    def test_sample_plan_for_n_is_a_prefix_of_the_plan_for_more(self, fixture_city_file,
                                                                tmp_path, capsys):
        net, seg = tmp_path / "net.ndjson", tmp_path / "segments.csv"
        assert main(["ingest", "--osm", str(fixture_city_file), "--city", "f",
                     "--out", str(net)]) == 0
        assert main(["segment", "--network", str(net), "--out", str(seg)]) == 0
        plans = {}
        for n in (5, 9):
            plans[n] = tmp_path / f"plan{n}.csv"
            assert main(["sample", "--segments", str(seg), "--n", str(n), "--seed", "11",
                         "--out", str(plans[n])]) == 0
        five, nine = (plans[n].read_text().splitlines() for n in (5, 9))
        assert len(five) == 1 + 5 and len(nine) == 1 + 9
        assert five == nine[:1 + 5]

    def test_sample_stratify_by_class_is_an_unrecognized_argument(self, fixture_city_file,
                                                                  tmp_path, capsys):
        # the stratified design is gone: the flag fails in argparse, before any work
        net, seg = tmp_path / "net.ndjson", tmp_path / "segments.csv"
        assert main(["ingest", "--osm", str(fixture_city_file), "--city", "f",
                     "--out", str(net)]) == 0
        assert main(["segment", "--network", str(net), "--out", str(seg)]) == 0
        capsys.readouterr()
        plan = tmp_path / "plan.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--segments", str(seg), "--n", "5", "--stratify-by-class",
                  "--out", str(plan)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --stratify-by-class" in capsys.readouterr().err
        assert not plan.exists()

    def test_run_plan_for_n_is_a_prefix_of_the_run_plan_for_more(self, fixture_city_file,
                                                                 tmp_path, capsys):
        plans = {}
        with MockStreetViewServer({"__default__": {"status": "OK"}}) as server:
            for n in (5, 9):
                out = tmp_path / f"run{n}"
                assert main(run_args(fixture_city_file, out, server.base_url, n=n)) == 0
                plans[n] = (out / "plan.csv").read_text().splitlines()
        assert len(plans[5]) == 1 + 5 and len(plans[9]) == 1 + 9
        assert plans[5] == plans[9][:1 + 5]

    def test_chained_stage_commands_write_the_run_artifacts(self, fixture_city_file, tmp_path,
                                                           capsys):
        xml = fixture_city_file.read_text()
        plan = planned_points(xml, "fixtureville", set(SAMPLED_ROAD_CLASSES), 500.0, 12, 7)
        run_dir, d = tmp_path / "run", tmp_path / "stages"
        d.mkdir()
        with MockStreetViewServer(fixture_for_plan(plan)) as server:
            assert main(run_args(fixture_city_file, run_dir, server.base_url)) == 0
            n_segments = len((run_dir / "segments.csv").read_text().splitlines()) - 1
            summaries = [
                f"{d / 'network.ndjson'}: 28 nodes, 14 road ways",
                f"{d / 'segments.csv'}: {n_segments} segments from 12 ways",
                f"{d / 'plan.csv'}: 12 of {n_segments} segments (seed 7)",
                f"{d}/queries.csv: 12 records, 6 OK",
                "coverage: 0.5000 [0.2538, 0.7462] (6/12 queries successful, 0 excluded)",
            ]
            capsys.readouterr()
            for argv, summary in zip(stage_commands(fixture_city_file, "fixtureville", d,
                                                    server.base_url), summaries):
                assert main(argv) == 0, argv[0]
                assert capsys.readouterr().out == summary + "\n", argv[0]
        for name in RUN_ARTIFACTS:
            assert (d / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_stage_commands_write_the_run_artifacts_past_a_degenerate_way_and_a_spaced_city(
            self, tmp_path, caplog):
        # run and the segment command skip a degenerate way alike, and neither
        # strips a string flag
        osm = tmp_path / "c.osm"
        osm.write_text(fixture_city_xml([(100, "primary", 6000.0), (101, "trunk", 0.01),
                                         (102, "tertiary", 600.0)]))
        run_dir, d = tmp_path / "run", tmp_path / "stages"
        d.mkdir()
        with (caplog.at_level(logging.WARNING, logger="roadsense.pipeline"),
              MockStreetViewServer({"__default__": {"status": "OK"}}) as server):
            assert main(run_args(osm, run_dir, server.base_url) + ["--city", " x "]) == 0
            for argv in stage_commands(osm, " x ", d, server.base_url):
                assert main(argv) == 0, argv[0]
        assert [r.getMessage() for r in caplog.records if r.name == "roadsense.pipeline"] == [
            "segment: skipped 1 degenerate ways"] * 2
        meta = json.loads((run_dir / "network.ndjson").read_text().splitlines()[0])
        assert meta == {"type": "meta", "city": " x "}
        for name in RUN_ARTIFACTS:
            assert (d / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_degenerate_way_is_skipped_and_counted(self, tmp_path, capsys, caplog):
        osm, net_file, seg_file = (tmp_path / n for n in ("c.osm", "net.ndjson", "seg.csv"))
        osm.write_text(fixture_city_xml([(100, "primary", 1200.0), (101, "trunk", 0.4),
                                         (102, "footway", 0.4), (103, "tertiary", 600.0)]))
        assert main(["ingest", "--osm", str(osm), "--city", "fixtureville",
                     "--out", str(net_file)]) == 0
        segment = ["segment", "--network", str(net_file), "--out", str(seg_file)]
        capsys.readouterr()
        with caplog.at_level(logging.WARNING, logger="roadsense.pipeline"):
            assert main(segment) == 0
        assert capsys.readouterr().out == (f"{seg_file}: 3 segments from 3 ways "
                                           "(1 degenerate ways skipped)\n")
        assert caplog.messages == ["segment: skipped 1 degenerate ways"]
        caplog.clear()
        with (caplog.at_level(logging.WARNING, logger="roadsense.pipeline"),
              MockStreetViewServer({"__default__": {"status": "OK"}}) as server):
            assert main(run_args(osm, tmp_path / "run", server.base_url, n=2)) == 0
        assert caplog.messages == ["segment: skipped 1 degenerate ways"]
        assert (tmp_path / "run" / "segments.csv").read_bytes() == seg_file.read_bytes()

    def test_skip_degenerate_is_an_unrecognized_argument(self, tmp_path, capsys):
        # segment always skips degenerate ways: the flag fails in argparse
        with pytest.raises(SystemExit) as exc:
            main(["segment", "--network", str(tmp_path / "net.ndjson"), "--skip-degenerate",
                  "--out", str(tmp_path / "seg.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --skip-degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["segment", "run"])
    @pytest.mark.parametrize("classes", ["", " , "])
    def test_empty_classes_exit_2_and_write_nothing(self, fixture_city_file, tmp_path,
                                                    capsys, command, classes):
        net_file = tmp_path / "net.ndjson"
        main(["ingest", "--osm", str(fixture_city_file), "--city", "f",
              "--out", str(net_file)])
        capsys.readouterr()
        out = tmp_path / "out"
        if command == "segment":
            args = ["segment", "--network", str(net_file), "--out", str(out)]
        else:
            args = run_args(fixture_city_file, out, "http://127.0.0.1:9")
        assert main(args + ["--classes", classes]) == 2
        assert "classes must name at least one road class" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fetch", "run"])
    @pytest.mark.parametrize("base_url", ["{host}", "ftp://{host}", "http://"])
    def test_bad_base_url_exits_2_before_any_request(self, fixture_city_file, tmp_path,
                                                     capsys, command, base_url):
        plan_file = tmp_path / "plan.csv"
        write_plan_csv(planned_points(fixture_city_file.read_text(), "f",
                                      set(SAMPLED_ROAD_CLASSES), 500.0, 4, 0), plan_file)
        with MockStreetViewServer({"__default__": {"status": "OK"}}) as server:
            base_url = base_url.format(host=server.base_url.removeprefix("http://"))
            if command == "run":
                args = run_args(fixture_city_file, tmp_path / "run", base_url)
            else:
                args = ["fetch", "--plan", str(plan_file), "--out-dir", str(tmp_path / "run"),
                        "--api-key", "k", "--base-url", base_url]
            assert main(args) == 2
            assert server.request_count == 0
        assert "base_url" in capsys.readouterr().err

    @pytest.mark.parametrize("command, path", [
        ("ingest", "adir"), ("segment", "adir"), ("coverage", "adir"), ("run", "adir"),
        ("ingest", "afile/x"), ("segment", "afile/x"), ("coverage", "afile/x"),
    ])
    def test_a_directory_as_input_exits_3(self, tmp_path, capsys, command, path):
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        source = str(tmp_path / path)
        args = {
            "ingest": ["--osm", source, "--city", "f", "--out", tmp_path / "net.ndjson"],
            "segment": ["--network", source, "--out", tmp_path / "s.csv"],
            "coverage": ["--queries", source, "--out", tmp_path / "c.json"],
            "run": ["--osm", source, "--city", "f", "--out-dir", tmp_path / "run",
                    "--api-key", "k"],
        }[command]
        assert main([command, *map(str, args)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and source in err
        assert not any(p.is_file() for p in tmp_path.rglob("*") if p.name != "afile")

    @pytest.mark.parametrize("fault", ["symlink-loop", "name-too-long"])
    @pytest.mark.parametrize("command", [
        ["ingest", "--osm", "{}", "--city", "f", "--out", "net.ndjson"],
        ["segment", "--network", "{}", "--out", "s.csv"],
        ["sample", "--segments", "{}", "--n", "3", "--out", "p.csv"],
        ["coverage", "--queries", "{}"],
        ["summarize", "--consensus", "{}", "--city", "f"],
        ["labels", "parse", "--in", "{}", "--out", "l.csv"],
    ], ids=lambda args: args[0])
    def test_any_os_error_on_an_input_exits_3(self, tmp_path, command, fault):
        (tmp_path / "loop").symlink_to("loop")
        source = "loop" if fault == "symlink-loop" else "x" * 300
        done = cli_process([arg.format(source) for arg in command], tmp_path)
        assert done.returncode == 3
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["loop"]

    @pytest.mark.parametrize("command", ["run", "fetch"])
    def test_images_that_is_a_file_exits_3_from_run_and_fetch(self, fixture_city_file, tmp_path,
                                                              command):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "images").write_text("")
        plan_file = tmp_path / "plan.csv"
        write_plan_csv(planned_points(fixture_city_file.read_bytes(), "f",
                                      SAMPLED_ROAD_CLASSES, 500.0, 2, 0), plan_file)
        inputs = {"run": ["--osm", str(fixture_city_file), "--city", "f", "--n", "2"],
                  "fetch": ["--plan", str(plan_file)]}[command]
        done = cli_process([command, *inputs, "--out-dir", str(out_dir), "--api-key", "k",
                            "--base-url", "http://127.0.0.1:9"], tmp_path)
        assert done.returncode == 3
        prefix = "error: stage fetch: " if command == "run" else "error: "
        assert done.stderr.startswith(prefix + "[Errno 17] File exists: ")
        assert str(out_dir / "images") in done.stderr and "Traceback" not in done.stderr

    def test_ingest_reports_kept_road_nodes(self, tmp_path, capsys):
        osm = tmp_path / "city.osm"
        osm.write_text("<osm>"
                       '<node id="1" lat="0" lon="0"/><node id="2" lat="0" lon="0.01"/>'
                       '<node id="3" lat="1" lon="1"><tag k="shop" v="bakery"/></node>'
                       '<way id="9"><nd ref="1"/><nd ref="2"/><tag k="highway" v="primary"/>'
                       "</way></osm>", encoding="utf-8")
        net_file = tmp_path / "net.ndjson"
        assert main(["ingest", "--osm", str(osm), "--city", "f", "--out", str(net_file)]) == 0
        assert "2 nodes, 1 road ways" in capsys.readouterr().out
        kinds = [json.loads(line)["type"] for line in net_file.read_text().splitlines()]
        assert kinds == ["meta", "node", "node", "way"]

    def test_ingest_and_sample_warn_once_in_the_log(self, tmp_path, capsys, caplog):
        osm = tmp_path / "city.osm"
        osm.write_text("<osm>"
                       '<node id="1" lat="0" lon="0"/><node id="1" lat="0" lon="0"/>'
                       '<node id="2" lat="0" lon="0.01"/>'
                       '<way id="9"><nd ref="1"/><nd ref="2"/><tag k="highway" v="primary"/>'
                       "</way></osm>", encoding="utf-8")
        net_file, seg_file = tmp_path / "net.ndjson", tmp_path / "segments.csv"
        with caplog.at_level(logging.WARNING):
            assert main(["ingest", "--osm", str(osm), "--city", "f",
                         "--out", str(net_file)]) == 0
            assert main(["segment", "--network", str(net_file), "--out", str(seg_file)]) == 0
            assert main(["sample", "--segments", str(seg_file), "--n", "5",
                         "--out", str(tmp_path / "plan.csv")]) == 0
        assert [r.getMessage() for r in caplog.records] == [
            "parse_osm: 1 duplicate node ids (last definition wins)",
            "sample_segments: requested 5 segments but population has only 2"]
        assert "warning" not in capsys.readouterr().out

    def test_cli_import_leaves_numpy_and_scipy_unloaded(self):
        src = str(Path(roadsense.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        code = ("import sys, roadsense.cli; "
                "print(sorted(m for m in ('numpy', 'scipy', 'requests') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_main_collects_cycles_every_100k_allocations(self, tmp_path):
        src = str(Path(roadsense.__file__).resolve().parent.parent)
        missing = str(tmp_path / "queries.csv")
        code = ("import gc, sys; from roadsense.cli import main; "
                f"code = main(['coverage', '--queries', {missing!r}]); "
                "print(code, gc.get_threshold()[0])")
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             check=True, capture_output=True, text=True).stdout
        assert out.split() == ["3", "100000"]

    def test_interrupt_exits_130_with_resume_hint(self, fixture_city_file, tmp_path,
                                                  monkeypatch, capsys):
        def interrupted(plan, config):
            raise KeyboardInterrupt
        monkeypatch.setattr("roadsense.pipeline.fetch_all", interrupted)
        code = main(run_args(fixture_city_file, tmp_path / "run", "http://127.0.0.1:9"))
        assert code == 130
        err = capsys.readouterr().err
        assert err.startswith("error: interrupted; completed records are kept in queries.csv")
        assert "Traceback" not in err

    def test_coverage_command(self, tmp_path, capsys):
        queries = tmp_path / "queries.csv"
        rows = ["segment_id,lat,lon,status,pano_id,capture_date,image_path,queried_at"]
        for i in range(10):
            status = "OK" if i < 3 else "ZERO_RESULTS"
            rows.append(f"s{i},0.0000000,{i}.0000000,{status},,,,t")
        queries.write_text("\n".join(rows) + "\n")
        out = tmp_path / "coverage.json"
        assert main(["coverage", "--queries", str(queries), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["proportion"] == 0.3
        assert "0.3000" in capsys.readouterr().out

    def test_coverage_golden_line_and_json(self, tmp_path, capsys):
        queries, out = tmp_path / "queries.csv", tmp_path / "coverage.json"
        t = "2026-01-01T00:00:00Z"
        queries.write_text(
            "segment_id,lat,lon,status,pano_id,capture_date,image_path,queried_at\n"
            f"s1,13.0000000,100.0000000,OK,p1,2019-05,images/s1.jpg,{t}\n"
            f"s2,13.0010000,100.0000000,ZERO_RESULTS,,,,{t}\n"
            f"s3,13.0020000,100.0000000,TRANSPORT_ERROR(503),,,,{t}\n"
            f"s4,13.0030000,100.0000000,OK,p4,2020-01,images/s4.jpg,{t}\n"
            f"s5,13.0040000,100.0000000,ZERO_RESULTS,,,,{t}\n"
            f"s6,13.0050000,100.0000000,ZERO_RESULTS,,,,{t}\n")
        assert main(["coverage", "--queries", str(queries), "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            "coverage: 0.4000 [0.1176, 0.7693] (2/5 queries successful, 1 excluded)\n")
        assert out.read_bytes() == (b'{\n'
                                    b'  "ci_high": 0.7692757205908813,\n'
                                    b'  "ci_low": 0.11762077314099711,\n'
                                    b'  "excluded": 1,\n'
                                    b'  "proportion": 0.4,\n'
                                    b'  "successes": 2,\n'
                                    b'  "total": 5\n'
                                    b'}\n')

    def test_labels_flow(self, tmp_path, capsys):
        batch = tmp_path / "batch.csv"
        rows = [LABEL_HEADER]
        for seg in range(12):
            for worker in ("w1", "w2", "w3"):
                rows.append(f"a{seg}{worker},{worker},s{seg},yes,no,yes,yes,no,yes")
            rows.append(f"a{seg}bad,bad,s{seg},no,yes,no,na,yes,nosidewalk")
        batch.write_text("\n".join(rows) + "\n")

        normalized = tmp_path / "normalized.csv"
        assert main(["labels", "parse", "--in", str(batch), "--out", str(normalized)]) == 0
        assert normalized.read_text().startswith("AssignmentId,")

        scores = tmp_path / "scores.csv"
        assert main(["labels", "score", "--in", str(batch), "--out", str(scores)]) == 0
        assert "bad,72,0.0000,true" in scores.read_text()

        consensus = tmp_path / "consensus.csv"
        assert main(["labels", "aggregate", "--in", str(batch), "--exclude-flagged",
                     "--out", str(consensus)]) == 0
        text = consensus.read_text()
        assert text.splitlines()[1].startswith("s0,yes,no,yes,yes,no,yes,3")

    def test_labels_aggregate_scores_workers_only_to_exclude_the_flagged(self, tmp_path,
                                                                          caplog):
        # one worker per image: scoring would warn that quality control is inert
        batch = tmp_path / "batch.csv"
        batch.write_text(LABEL_HEADER + "\na1,w1,s1,yes,no,yes,yes,no,yes\n"
                         "a2,w2,s2,no,no,yes,yes,no,yes\n")
        out = tmp_path / "consensus.csv"
        with caplog.at_level(logging.WARNING, logger="roadsense.labeling"):
            assert main(["labels", "aggregate", "--in", str(batch), "--out", str(out)]) == 0
            assert caplog.messages == []
            assert main(["labels", "aggregate", "--in", str(batch), "--exclude-flagged",
                         "--out", str(out)]) == 0
        assert [m.split(";")[0] for m in caplog.messages] == [
            "score_workers: every segment has a single worker"]

    @pytest.mark.parametrize("action", ["parse", "score"])
    def test_labels_exclude_flagged_outside_aggregate_exits_2(self, tmp_path, capsys, action):
        batch = tmp_path / "batch.csv"
        batch.write_text(LABEL_HEADER + "\na1,w1,s1,yes,no,yes,yes,no,yes\n")
        out = tmp_path / "out.csv"
        assert main(["labels", action, "--in", str(batch), "--exclude-flagged",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: --exclude-flagged must be used with the "
                                           f"aggregate action, got {action}\n")
        assert not out.exists()

    @pytest.mark.parametrize("action", ["parse", "aggregate"])
    def test_labels_threshold_where_no_worker_is_scored_exits_2(self, tmp_path, capsys,
                                                                action):
        batch = tmp_path / "batch.csv"
        batch.write_text(LABEL_HEADER + "\na1,w1,s1,yes,no,yes,yes,no,yes\n")
        out = tmp_path / "out.csv"
        assert main(["labels", action, "--in", str(batch), "--threshold", "0.9",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --threshold must be used where workers are scored: score, or aggregate "
            f"--exclude-flagged, got {action}\n")
        assert not out.exists()

    @pytest.mark.parametrize("action", [["score"], ["aggregate", "--exclude-flagged"]])
    def test_labels_threshold_defaults_to_the_agreement_threshold(self, tmp_path, action):
        batch = tmp_path / "batch.csv"
        batch.write_text("\n".join([LABEL_HEADER] + [
            f"a{s}{w},{w},s{s},{'no,yes' if w == 'w3' else 'yes,no'},yes,yes,no,yes"
            for s in range(4) for w in ("w1", "w2", "w3")]) + "\n")
        outputs = []
        for threshold in ([], ["--threshold", "0.6"], ["--threshold", "0.9"]):
            out = tmp_path / f"out{len(outputs)}.csv"
            assert main(["labels", *action, "--in", str(batch), "--out", str(out),
                         *threshold]) == 0
            outputs.append(out.read_bytes())
        # w3 agrees with the majority on 16 of 24 answers: flagged only at 0.9
        assert outputs[0] == outputs[1] != outputs[2]

    @pytest.mark.parametrize("action", ["parse", "score", "aggregate"])
    def test_labels_markings_clear_na_with_markings_present_exits_3(
            self, tmp_path, capsys, action):
        batch = tmp_path / "batch.csv"
        batch.write_text(LABEL_HEADER + "\na1,w1,s1,yes,no,yes,na,no,yes\n")
        out = tmp_path / "out.csv"
        assert main(["labels", action, "--in", str(batch), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{batch}: line 2: column Answer.markings_clear:" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["labels-aggregate", "summarize", "regress"])
    def test_runs_without_site_packages(self, tmp_path, capsys, command):
        # python -S leaves site-packages, and numpy with it, off sys.path
        if command == "labels-aggregate":
            # worker w2 answers the opposite of the others, so it is excluded
            batch = tmp_path / "batch.csv"
            batch.write_text("\n".join([LABEL_HEADER] + [
                f"a{i},w{i % 3},s{i // 3}," + ("no,yes,yes,yes,yes,no" if i % 3 == 2
                                               else "yes,no,yes,yes,no,yes")
                for i in range(30)]) + "\n")
            args = ["labels", "aggregate", "--in", str(batch), "--exclude-flagged", "--out"]
        elif command == "summarize":
            consensus = tmp_path / "consensus.csv"
            consensus.write_text(f"{CONSENSUS_CSV_HEADER}\np0,yes,no,yes,yes,no,yes,1\n"
                                 "p1,no,no,yes,no,unresolved,yes,3\n")
            args = ["summarize", "--consensus", str(consensus), "--city", "x",
                    "--journey-km", "10", "--csv"]
        else:
            args = regress_inputs(tmp_path, [3, 4, 5, 6, 7]) + [
                "--factors", "income_quintile", "--robust", "--csv"]
        out = tmp_path / "out.csv"
        assert main(args + [str(out)]) == 0
        printed, written = capsys.readouterr().out, out.read_bytes()
        out.unlink()
        done = cli_process(args + [str(out)], tmp_path, "-S")
        assert (done.returncode, done.stderr) == (0, "")
        assert (done.stdout, out.read_bytes()) == (printed, written)

    @pytest.mark.parametrize("verdict", ["YES", "maybe"])
    def test_summarize_rejects_a_verdict_outside_the_vocabulary(self, tmp_path, capsys,
                                                                verdict):
        consensus = tmp_path / "consensus.csv"
        consensus.write_text(f"{CONSENSUS_CSV_HEADER}\np0,no,no,yes,yes,no,yes,1\n"
                             f"p1,{verdict},no,yes,yes,no,yes,1\n")
        assert main(["summarize", "--consensus", str(consensus), "--city", "jakarta"]) == 3
        captured = capsys.readouterr()
        assert (f"{consensus}: line 3: column potholes: unrecognized verdict {verdict!r}"
                in captured.err)
        assert "potholes" not in captured.out

    @pytest.mark.parametrize("args, flag", [
        (["summarize", "--journey-km", "10", "--capture-km", "0"], "--capture-km"),
        (["summarize", "--journey-km", "10", "--capture-km", "nan"], "--capture-km"),
        (["summarize", "--journey-km", "-10"], "--journey-km"),
        (["summarize", "--capture-km", "0.1"], "--capture-km"),
        (["labels", "score", "--threshold", "nan"], "--threshold"),
        (["labels", "aggregate", "--threshold", "1.5"], "--threshold"),
        (["labels", "score", "--threshold", "-0.1"], "--threshold"),
    ], ids=["capture-km-zero", "capture-km-nan", "journey-km-negative",
            "capture-km-without-journey-km", "threshold-nan",
            "threshold-above-1", "threshold-below-0"])
    def test_analysis_flag_out_of_range_exits_2_naming_it(self, tmp_path, capsys, args, flag):
        consensus, batch = tmp_path / "consensus.csv", tmp_path / "batch.csv"
        consensus.write_text(f"{CONSENSUS_CSV_HEADER}\np0,yes,no,yes,yes,no,yes,1\n")
        batch.write_text(LABEL_HEADER + "\na1,w1,s1,yes,no,yes,yes,no,yes\n")
        out = tmp_path / "out.csv"
        if args[0] == "summarize":
            args = args + ["--consensus", str(consensus), "--city", "jakarta"]
        else:
            args = args + ["--in", str(batch), "--out", str(out)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} must be")
        assert captured.out == ""
        assert not out.exists()

    def test_summarize_command(self, tmp_path, capsys):
        consensus = tmp_path / "consensus.csv"
        rows = ["segment_id,potholes,cracks,markings_present,markings_clear,"
                "litter,sidewalk_paved,n_workers"]
        for i in range(23):
            rows.append(f"p{i},yes,no,yes,yes,no,yes,1")
        for i in range(77):
            rows.append(f"n{i},no,no,yes,yes,no,yes,1")
        consensus.write_text("\n".join(rows) + "\n")
        assert main(["summarize", "--consensus", str(consensus), "--city", "jakarta",
                     "--journey-km", "10", "--capture-km", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "jakarta" in out
        assert "0.23" in out
        assert "2.3" in out
        assert "note:" in out

    def test_summarize_journey_km_alone_takes_half_a_km_per_photo(self, tmp_path, capsys):
        consensus = tmp_path / "consensus.csv"
        consensus.write_text(f"{CONSENSUS_CSV_HEADER}\np0,yes,no,yes,yes,no,yes,1\n"
                             "p1,no,no,yes,yes,no,yes,1\n")
        assert main(["summarize", "--consensus", str(consensus), "--city", "x",
                     "--journey-km", "10"]) == 0
        assert "expected potholes over 10 km at 0.5 km per photo: 10.0\n" in (
            capsys.readouterr().out)

    def test_summarize_golden_table_and_csv(self, tmp_path, capsys):
        # every verdict kind; litter has none that resolves, so it prints - and
        # leaves its CSV cell empty
        consensus, csv_out = tmp_path / "consensus.csv", tmp_path / "summary.csv"
        consensus.write_text(
            f"{CONSENSUS_CSV_HEADER}\n"
            "s1,yes,no,yes,yes,unresolved,yes,3\n"
            "s2,no,no,yes,no,unresolved,no,3\n"
            "s3,no,yes,no,na,unresolved,yes,2\n"
            "s4,unresolved,no,no,na,unresolved,yes,3\n"
            "s5,no,unresolved,yes,yes,unresolved,no,1\n"
            "s6,yes,no,yes,unresolved,unresolved,yes,3\n"
            "s7,no,no,yes,yes,unresolved,yes,3\n")
        assert main(["summarize", "--consensus", str(consensus), "--city", "jakarta",
                     "--journey-km", "10", "--capture-km", "0.5", "--csv", str(csv_out)]) == 0
        assert capsys.readouterr().out == (
            "city     n  potholes  cracks  clear road markings  roads w/ markings  litter  "
            "paved sidewalk\n"
            "jakarta  7  0.33      0.17    0.75                 0.71               -       "
            "0.71          \n"
            "expected potholes over 10 km at 0.5 km per photo: 6.7\n"
            "note: the expected count scales with 1/capture-km; the same rate gives 2x the "
            "count at 0.5 km per photo vs 1 km per photo\n")
        assert csv_out.read_bytes() == (
            b"city,n_images,potholes,cracks,markings_clear,markings_present,litter,"
            b"sidewalk_paved\n"
            b"jakarta,7,0.333333,0.166667,0.750000,0.714286,,0.714286\n")

    @pytest.mark.parametrize("column, bad", [(0, "maybe"), (6, "0")],
                             ids=["potholes-maybe", "n_workers-0"])
    def test_regress_rejects_a_consensus_value_outside_the_vocabulary(
            self, fixture_city_file, tmp_path, capsys, column, bad):
        net_file, seg_file = tmp_path / "net.ndjson", tmp_path / "segments.csv"
        main(["ingest", "--osm", str(fixture_city_file), "--city", "f", "--out", str(net_file)])
        main(["segment", "--network", str(net_file), "--out", str(seg_file)])
        rows = [CONSENSUS_CSV_HEADER]
        for i, line in enumerate(seg_file.read_text().splitlines()[1:]):
            cells = ["yes" if (i * 7) % 3 == 0 else "no", "no", "yes", "yes", "no", "yes", "1"]
            if i == 1:
                cells[column] = bad
            rows.append(",".join([line.split(",")[0], *cells]))
        consensus = tmp_path / "consensus.csv"
        consensus.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert main(["regress", "--outcome", "potholes", "--consensus", str(consensus),
                     "--segments", str(seg_file), "--factors", "road_class",
                     "--csv", str(tmp_path / "coef.csv")]) == 3
        name = CONSENSUS_CSV_HEADER.split(",")[column + 1]
        assert f"{consensus}: line 3: column {name}:" in capsys.readouterr().err
        assert not (tmp_path / "coef.csv").exists()

    def test_regress_command(self, fixture_city_file, tmp_path, capsys):
        net_file = tmp_path / "net.ndjson"
        seg_file = tmp_path / "segments.csv"
        main(["ingest", "--osm", str(fixture_city_file), "--city", "f",
              "--out", str(net_file)])
        main(["segment", "--network", str(net_file), "--out", str(seg_file)])
        segments = seg_file.read_text().splitlines()[1:]
        consensus = tmp_path / "consensus.csv"
        rows = ["segment_id,potholes,cracks,markings_present,markings_clear,"
                "litter,sidewalk_paved,n_workers"]
        classes_seen = set()
        for i, line in enumerate(segments):
            seg_id = line.split(",")[0]
            cls = line.split(",")[8]
            classes_seen.add(cls)
            verdict = "yes" if (i * 7) % 3 == 0 else "no"
            rows.append(f"{seg_id},{verdict},no,yes,yes,no,yes,1")
        assert classes_seen == {"primary", "secondary", "tertiary", "trunk"}
        consensus.write_text("\n".join(rows) + "\n")
        out_csv = tmp_path / "coef.csv"
        assert main(["regress", "--outcome", "potholes", "--consensus", str(consensus),
                     "--segments", str(seg_file), "--factors", "road_class",
                     "--csv", str(out_csv)]) == 0
        printed = capsys.readouterr().out
        assert "road_class=primary" in printed
        assert "R^2" in printed
        assert out_csv.read_text().startswith("coefficient,")

    def test_export_mode_is_an_unrecognized_argument(self, tmp_path, capsys):
        # export works out points or lines from --network; it takes no --mode
        with pytest.raises(SystemExit) as exc:
            main(["export", "--plan", str(tmp_path / "plan.csv"), "--mode", "points",
                  "--out", str(tmp_path / "x.geojson")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode points" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "fetch"])
    def test_out_dir_that_is_a_file_exits_3(self, fixture_city_file, tmp_path, capsys,
                                             command):
        afile = tmp_path / "afile"
        afile.write_text("")
        plan_file = tmp_path / "plan.csv"
        write_plan_csv(planned_points(fixture_city_file.read_bytes(), "f",
                                      SAMPLED_ROAD_CLASSES, 500.0, 2, 0), plan_file)
        inputs = {"run": ["--osm", str(fixture_city_file), "--city", "f"],
                  "fetch": ["--plan", str(plan_file)]}[command]
        assert main([command, *inputs, "--out-dir", str(afile), "--api-key", "k",
                     "--base-url", "http://127.0.0.1:9"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(afile) in err
        assert afile.read_text() == ""


def regress_inputs(tmp_path, per_tract, tracts=True):
    """segments.csv, consensus.csv and tracts.geojson for regress: tract k, the
    one-degree square east of longitude k, has income k + 1 and holds
    per_tract[k] primary segments of city f; every third segment has potholes.
    The arguments give --tracts only when ``tracts`` is true."""
    segments, consensus, features = [SEGMENTS_CSV_HEADER], [CONSENSUS_CSV_HEADER], []
    for k, n in enumerate(per_tract):
        for j in range(n):
            sid = f"{k}{j}#0"
            lon = k + 0.1 + 0.05 * j
            segments.append(f"{sid},1,0,0.5,{lon},0.5,{lon + 0.01},100.0,primary,f")
            potholes = "yes" if len(consensus) % 3 == 1 else "no"
            consensus.append(f"{sid},{potholes},no,yes,yes,no,yes,1")
        ring = [[k, 0], [k + 1, 0], [k + 1, 1], [k, 1], [k, 0]]
        features.append({"type": "Feature", "geometry": {"type": "Polygon", "coordinates": [ring]},
                         "properties": {"tract_id": f"t{k}", "per_capita_income": k + 1}})
    paths = tmp_path / "segments.csv", tmp_path / "consensus.csv", tmp_path / "tracts.geojson"
    paths[0].write_text("\n".join(segments) + "\n")
    paths[1].write_text("\n".join(consensus) + "\n")
    paths[2].write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    args = ["regress", "--outcome", "potholes", "--segments", str(paths[0]),
            "--consensus", str(paths[1])]
    return args + ["--tracts", str(paths[2])] if tracts else args


@pytest.mark.parametrize("command", ["summarize", "regress"])
def test_csv_into_a_missing_directory_exits_3_naming_the_path(tmp_path, capsys, command):
    target = tmp_path / "nodir" / "out.csv"
    if command == "summarize":
        consensus = tmp_path / "consensus.csv"
        consensus.write_text(f"{CONSENSUS_CSV_HEADER}\np0,yes,no,yes,yes,no,yes,1\n")
        args = ["summarize", "--consensus", str(consensus), "--city", "x"]
    else:
        args = regress_inputs(tmp_path, [3, 3, 3, 3, 3]) + ["--factors", "income_quintile"]
    assert main(args + ["--csv", str(target)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno 2] No such file or directory: '{target}'\n"
    assert captured.out == ""  # a failed write prints no table
    assert not target.parent.exists()


class TestRegressFlags:
    def test_tied_quintile_cut_points_exit_5_suggesting_by_tract(self, tmp_path, capsys):
        # 8 of 12 points share the lowest income: the first three cut points tie
        args = regress_inputs(tmp_path, [8, 1, 1, 1, 1])
        assert main(args + ["--factors", "income_quintile"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: income quintile cut points 1, 1, 1, 2.8 tie at 1:")
        assert "--by-tract" in err
        assert main(args + ["--factors", "income_quintile", "--by-tract"]) == 0

    @pytest.mark.parametrize("factors, bad", [
        ("foo", "foo"), ("road_class,road_class", "road_class"),
        ("city, income_quintile ,city", "city"),
    ], ids=["unknown", "repeated", "repeated-after-spaces"])
    def test_bad_factors_exit_2_naming_the_factor(self, tmp_path, capsys, factors, bad):
        args = regress_inputs(tmp_path, [3, 3, 3, 3, 3])
        assert main(args + ["--factors", factors]) == 2
        assert capsys.readouterr().err == (
            "error: --factors must be road_class, city or income_quintile, each at most "
            f"once, got {bad}\n")

    @pytest.mark.parametrize("extra, flag", [
        (["--factors", "income_quintile", "--baseline-city", "nowhere"], "--baseline-city"),
        (["--factors", "city", "--by-tract", "--tracts", "missing.geojson"], "--by-tract"),
        (["--factors", "road_class", "--tracts", "missing.geojson"], "--tracts"),
    ], ids=["baseline-city-without-city", "by-tract-without-income-quintile",
            "tracts-without-income-quintile"])
    def test_a_flag_the_factors_would_ignore_exits_2(self, tmp_path, capsys, extra, flag):
        out = tmp_path / "coef.csv"
        assert main(regress_inputs(tmp_path, [3, 3, 3, 3, 3]) + extra + ["--csv", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} must be used with the ")
        assert not out.exists()

    def test_income_quintile_without_tracts_exits_2_before_any_file_is_read(
            self, tmp_path, capsys):
        args = regress_inputs(tmp_path, [3, 3, 3, 3, 3], tracts=False)
        (tmp_path / "segments.csv").unlink()
        (tmp_path / "consensus.csv").unlink()
        out = tmp_path / "coef.csv"
        assert main(args + ["--factors", "road_class,income_quintile", "--csv", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --tracts is required for the income_quintile factor\n")
        assert not out.exists()

    def test_a_consensus_sharing_no_segment_with_the_plan_exits_5(self, tmp_path, capsys):
        args = regress_inputs(tmp_path, [3, 3, 3, 3, 3], tracts=False)
        (tmp_path / "consensus.csv").write_text(
            f"{CONSENSUS_CSV_HEADER}\nelsewhere#0,yes,no,yes,yes,no,yes,1\n")
        assert main(args + ["--factors", "road_class"]) == 5
        assert capsys.readouterr().err == (
            "error: need more observations (0) than coefficients (4)\n")

    def test_warning_under_python_m_names_the_cli_logger(self, tmp_path):
        args = regress_inputs(tmp_path, [3] * 6) + ["--factors", "income_quintile"]
        tracts = tmp_path / "tracts.geojson"
        doc = json.loads(tracts.read_text())
        del doc["features"][-1]  # the last tract's 3 points fall outside every tract
        tracts.write_text(json.dumps(doc))
        src = str(Path(roadsense.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-m", "roadsense.cli", *args],
                              env={**os.environ, "PYTHONPATH": src},
                              check=True, capture_output=True, text=True)
        assert done.stderr == (
            "WARNING roadsense.cli: regress: 3 sampled points fell outside every tract\n")

    def test_warning_in_process_names_the_cli_logger(self, tmp_path, capsys, caplog):
        args = regress_inputs(tmp_path, [3] * 6) + ["--factors", "income_quintile"]
        tracts = tmp_path / "tracts.geojson"
        doc = json.loads(tracts.read_text())
        del doc["features"][-1]
        tracts.write_text(json.dumps(doc))
        with caplog.at_level(logging.WARNING):
            assert main(args) == 0
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("roadsense.cli", "regress: 3 sampled points fell outside every tract")]

    def test_intercept_only_fit_prints_an_unsigned_zero_r_squared(self, tmp_path, capsys):
        # 4 of 12 outcomes are 1: the residual and total sums of squares
        # differ in the last bit, and R^2 comes out at -2.2e-16
        args = regress_inputs(tmp_path, [12], tracts=False)
        assert main(args + ["--factors", "city"]) == 0
        assert capsys.readouterr().out.endswith("n = 12, R^2 = 0.0000\n")


def readme_commands() -> list[str]:
    """Each `roadsense ...` line of README.md's code blocks, its backslash
    continuations joined and the brackets around optional flags dropped."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [re.sub(r"[\[\]]", "", line) for line in lines if line.startswith("roadsense ")]


def test_every_readme_command_parses(capsys):
    commands = readme_commands()
    assert len(commands) >= 15 and any(c.startswith("roadsense export") for c in commands)
    parser = roadsense.cli.build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}\n{capsys.readouterr().err}")


def test_version_is_the_one_pyproject_declares(capsys):
    # pyproject.toml is read with a regex: Python 3.10 has no tomllib
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    project = pyproject.split("[project]\n", 1)[1].split("\n[", 1)[0]
    declared = re.search(r'^version = "([^"]+)"$', project, re.M).group(1)
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"{declared}\n"
