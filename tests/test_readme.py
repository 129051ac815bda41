import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import gcshelm

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    assert out.getvalue().split()[:2] == ["262", "262"]


def test_readme_module_references_resolve():
    # a backticked `module.name` naming a gcshelm submodule must exist there,
    # so deleting or renaming a function fails here, not in a stale README
    modules = {m.name for m in pkgutil.iter_modules(gcshelm.__path__)}
    refs = {(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)", README.read_text()) if mod in modules}
    assert refs
    missing = [
        f"{mod}.{name}" for mod, name in sorted(refs) if not hasattr(importlib.import_module(f"gcshelm.{mod}"), name)
    ]
    assert missing == []


def test_readme_helper_names_resolve():
    # every oracle the README says is kept, written "`tests/helpers.py` as
    # `name`" (optionally "(with `other`)"), must be a name of tests/helpers.py,
    # so deleting an oracle fails here, not in a stale README
    import helpers

    text = README.read_text()
    found = re.findall(r"`tests/helpers\.py`\s+as\s+`(\w+)`(?:\s+\(with\s+`(\w+)`\))?", text)
    assert len(found) == text.count("`tests/helpers.py`")
    names = {name for pair in found for name in pair if name}
    assert {"banded_fem_values", "dual_frame_oracle", "operator_pair_inner"} <= names
    assert sorted(name for name in names if not hasattr(helpers, name)) == []
