"""README's Library example runs as written, and the package root exports exactly its names."""

import ast
import contextlib
import io
import re
import sys
import types
from pathlib import Path

import seqjde

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first fenced Python block of README's Library section."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def example_imports() -> set[str]:
    tree = ast.parse(library_example())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "seqjde"
            for alias in node.names}


def test_library_example_prints_the_pinned_line():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    assert out.getvalue() == "1 Hypothesis.H0 None 1.3734493962865475\n"


def test_root_exports_exactly_the_example_names():
    assert len(seqjde.__all__) == len(set(seqjde.__all__)) == 8
    assert set(seqjde.__all__) == example_imports()
    # no other public name: every other one is imported from its own module.  dir(), not
    # vars(): the names whose modules load NumPy are the module's __getattr__'s
    public = {name for name in dir(seqjde) if not name.startswith("_")
              and not isinstance(getattr(seqjde, name), types.ModuleType)}
    assert public == set(seqjde.__all__)


def test_root_names_are_their_modules_objects():
    for name in seqjde.__all__:
        obj = getattr(seqjde, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("seqjde.")
        assert getattr(module, name) is obj
    # the checked inputs moved to model, and sim re-exports them as the same objects
    from seqjde import model, sim
    for name in ("Constant", "IidGaussian", "Rayleigh", "Ar1", "FromFile", "ChannelModel",
                 "ScenarioConfig"):
        assert getattr(sim, name) is getattr(model, name), name
