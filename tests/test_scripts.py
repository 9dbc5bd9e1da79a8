"""Smoke tests of the experiment scripts: each runs to the end, writes one
report per roster entry, and writes the report the harness gives."""

import os
import runpy
import subprocess
import sys

from fqcover.harness import ExperimentSpec, canonical_json
from fqcover.scalar import run_cover_exhaustive, run_sharpness
from conftest import src_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")


def _run(script, *args):
    path = os.path.join(SCRIPTS, script)
    res = subprocess.run([sys.executable, path, *args], capture_output=True, text=True,
                         env=src_env(), timeout=120)
    return res, runpy.run_path(path)


def test_roster_sweep_writes_one_harness_report_per_entry(tmp_path):
    res, script = _run("roster_sweep.py", "--outdir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    names = [f"cover_q{p ** n}_d{d}.json" for p, n, d in script["ROSTER"]]
    assert sorted(os.listdir(tmp_path)) == sorted(names + ["geometry_q3_d2.json"])
    report = run_cover_exhaustive(ExperimentSpec(p=7, n=1, d=2, mode="exhaustive"))
    assert (tmp_path / "cover_q7_d2.json").read_text() == canonical_json(report.to_dict())


def test_sharpness_survey_writes_one_harness_report_per_field(tmp_path):
    res, script = _run("sharpness_survey.py", "--outdir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    names = [f"sharpness_q{p ** n}_d2.json" for p, n in script["FIELDS"]]
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    report = run_sharpness(ExperimentSpec(p=3, n=2, d=2, mode="structured"))
    assert (tmp_path / "sharpness_q9_d2.json").read_text() == canonical_json(report.to_dict())
