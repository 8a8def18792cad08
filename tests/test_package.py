"""The package's public name list, the README's library example and the CI workflow file."""

import re
from pathlib import Path

import pytest

import godelnet


def test_public_names_resolve_and_are_listed_once_in_order():
    names = godelnet.__all__
    assert [name for name in names if not hasattr(godelnet, name)] == []
    assert names == sorted(set(names))


def readme_example():
    """The README's one ``python`` block, the library example."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    return block


def test_the_readme_library_example_runs():
    exec(readme_example(), {})


def test_the_ci_workflow_parses_and_every_step_runs_or_uses_an_action():
    yaml = pytest.importorskip("yaml")
    path = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"
    workflow = yaml.safe_load(path.read_text(encoding="utf-8"))
    jobs = workflow["jobs"]
    assert jobs
    for name, job in jobs.items():
        assert job["steps"], name
        for step in job["steps"]:
            assert "run" in step or "uses" in step, (name, step)
