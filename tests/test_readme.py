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
