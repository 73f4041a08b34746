"""The end-to-end chaos harness and the CI job that runs it stay in step.

``scripts/chaos_check.py`` defines the checks and the CI ``chaos`` job
runs one matrix entry per check, so a check missing from either side
would silently stop running in CI or fail it on an unknown name.
"""

import importlib.util
import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parent.parent


def test_check_names_equal_the_ci_matrix():
    spec = importlib.util.spec_from_file_location("chaos_check", REPO / "scripts" / "chaos_check.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    # Read as text, so the suite needs no YAML parser.
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    matrix = re.findall(r"^ +- \{check: ([\w-]+), timeout: \d+\}$", ci, re.M)
    assert sorted(matrix) == sorted(harness.CHECKS)
