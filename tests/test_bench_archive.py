"""The benchmark's ``archive`` mode writes a model directory ``eval`` can read.

``perfbench/child.py`` builds the ``eval-rollout`` workload's input this
way; here it runs as its own process at a tiny shape on a synth panel.
"""

import json
import subprocess
import sys
from pathlib import Path

from exoforecast.cli import main

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
SHAPE = {"t_past": 6, "t_future": 4, "hidden": 4, "experts": 2, "backbone": "grugcn",
         "graph_kind": "pearson", "graph_k": 2, "fusion": "context", "seed": 0}


def test_archive_mode_feeds_eval(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "synth"), "--nodes", "3",
                 "--steps", "200", "--seed", "5"]) == 0
    spec = {"mode": "archive", "data": str(tmp_path / "synth" / "panel.csv"),
            "schema": str(tmp_path / "synth" / "panel.schema.json"),
            "out": str(tmp_path / "archive"), "shape": SHAPE, "days": 2,
            "report": str(tmp_path / "report.json")}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    done = subprocess.run([sys.executable, str(CHILD), str(tmp_path / "spec.json")],
                          capture_output=True, text=True, timeout=120)
    report = json.loads((tmp_path / "report.json").read_text())
    assert done.returncode == 0 and report["exit"] == 0, report.get("error", done.stderr)

    capsys.readouterr()
    assert main(["eval", "--model-dir", str(tmp_path / "archive"), "--horizon-days", "2",
                 "--out", str(tmp_path / "eval")]) == 0
    rows = json.loads((tmp_path / "eval" / "metrics.json").read_text())
    assert [row["horizon_days"] for row in rows] == [1, 2]
