import os
from pathlib import Path

import hypothesis

hypothesis.settings.register_profile("fqcover", max_examples=40, deadline=None)
hypothesis.settings.load_profile("fqcover")

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env() -> dict:
    """The environment with this checkout's ./src first on PYTHONPATH, so a
    subprocess imports this fqcover, not an installed one."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC)] + ([path] if path else []))}
