"""The package's public name list and the README's library example."""

import re
from pathlib import Path

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
