"""The committed Fig. 3 artifact is what ``experiments.fig3.run()`` gives.

``results/fig3.json`` is written by ``jobs/fig3_estimators.py`` through
``save_result``; the estimator study is pure NumPy, so the check needs no
Spark. A change to the estimators, the projection or the stand-in data
that moves a number fails here until the figure's data is regenerated.
"""
import json
from pathlib import Path

from repro.experiments.fig3 import run

ARTIFACT = Path(__file__).parents[1] / "results" / "fig3.json"


def test_committed_fig3_matches_run():
    records = run().to_dict(orient="records")
    assert json.dumps(records, indent=2, default=float) == ARTIFACT.read_text()
