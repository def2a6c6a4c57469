"""The benchmark's traced CLI (perfbench/traced_cli.py) must still fire each
span on `run`'s path: a wrap site that resolves but is never called would
read 0 in the benchmark's per-layer metrics."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from roadsense.mockserver import MockStreetViewServer

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"


def wrap_sites():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAP_SITES


def test_every_span_on_runs_path_fires(fixture_city_file, tmp_path):
    expected = {name for module, _, name in wrap_sites()
                if module in ("roadsense.cli", "roadsense.pipeline")}
    expected |= {"cli.main", "streetview.TokenBucket.acquire"}
    assert len(expected) == 13
    spans = tmp_path / "spans.json"
    with MockStreetViewServer({"__default__": {"status": "OK"}}) as server:
        args = ["run", "--osm", str(fixture_city_file), "--city", "fixtureville",
                "--out-dir", str(tmp_path / "run"), "--n", "12", "--base-url", server.base_url,
                "--api-key", "k", "--rate-per-s", "100000"]
        subprocess.run([sys.executable, str(TRACED_CLI), str(spans), *args], check=True,
                       capture_output=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert server.request_count == 24  # a metadata and an image request per point
    fired = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert expected - fired == set()
