"""Byte identity of reports on a fixed roster.

Every spec in `report_digests.json` runs in-process through `cli.main`; the
SHA-256 of its report (and of its `--csv` file, where the entry has one)
must equal the recorded digest.  A change that alters reports on purpose
bumps the report schema and re-records the digests:

    PYTHONPATH=src python tests/test_report_identity.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

import fqcover.cli as cli

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "report_digests.json")


def _load() -> list[dict]:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_entry(entry: dict, tmpdir: str) -> tuple[int, str, str | None]:
    """Exit code, report digest and csv digest (or None) of one roster spec."""
    argv = list(entry["argv"])
    csv_path = os.path.join(tmpdir, "profile.csv")
    if "csv" in entry:
        argv += ["--csv", csv_path]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    csv = None
    if "csv" in entry:
        with open(csv_path, "rb") as fh:
            csv = _sha256(fh.read())
    return code, _sha256(out.getvalue().encode()), csv


@pytest.mark.parametrize("entry", _load(), ids=lambda e: " ".join(e["argv"]))
def test_report_bytes_match_the_recorded_digest(entry, tmp_path):
    code, report, csv = run_entry(entry, str(tmp_path))
    assert code == entry["exit_code"]
    assert report == entry["report"]
    assert csv == entry.get("csv")


def _record() -> None:
    entries = _load()
    with tempfile.TemporaryDirectory() as tmpdir:
        for entry in entries:
            code, report, csv = run_entry(entry, tmpdir)
            entry.update(exit_code=code, report=report)
            if csv is not None:
                entry["csv"] = csv
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
