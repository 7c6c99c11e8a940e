"""The committed Table 2 artifact is what ``experiments.table2.run()`` gives.

``results/table2.json`` is written by ``jobs/table2_cost_model.py`` through
``save_result``; Table 2 is pure NumPy, so the check needs no Spark. A
change to either tree, the cost model or the stand-in data that moves a
number fails here until the table (and EXPERIMENTS.md) is regenerated.
"""
import json
from pathlib import Path

from repro.experiments.table2 import run

ARTIFACT = Path(__file__).parents[1] / "results" / "table2.json"


def test_committed_table2_matches_run():
    records = run().to_dict(orient="records")
    assert json.dumps(records, indent=2, default=float) == ARTIFACT.read_text()
