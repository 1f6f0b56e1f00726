import re
import types
from pathlib import Path

import rbu
from rbu.grids import load_grid_file

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rbu import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(rbu.__all__)


def test_all_lists_every_public_name_once():
    # Submodules (rbu.cli, rbu.potential, ...) are reached by attribute, not exported.
    public = {
        name
        for name, value in vars(rbu).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(rbu.__all__) == sorted(public)


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:  # later examples reuse earlier names
        exec(block, namespace)


def test_readme_grid_file_example_loads(tmp_path):
    (block,) = re.findall(r"```json\n(.*?)```", README, re.S)
    path = tmp_path / "grid.json"
    path.write_text(block)
    grids = load_grid_file(path)
    assert list(grids) == ["rbu", "stl"]
    assert [s.label for s in grids["stl"]] == ["smote(k=5, ratio=1.0)+tomek"]
