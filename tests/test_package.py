"""The package surface: lazy re-exports, and what one CLI process imports."""
import importlib
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

import polarnet

SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = ("analysis", "core", "dsl", "io", "matrix")


def test_every_public_name_is_its_home_modules_object():
    homes = {}
    for module_name in SUBMODULES:
        module = importlib.import_module(f"polarnet.{module_name}")
        for name in set(module.__all__) & set(polarnet.__all__):
            homes[name] = module
    assert set(homes) == set(polarnet.__all__)
    for name, module in homes.items():
        assert getattr(polarnet, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from polarnet import *", namespace)
    assert set(polarnet.__all__) <= set(namespace)
    for name in polarnet.__all__:
        assert namespace[name] is getattr(polarnet, name), name


def test_dir_lists_every_public_name():
    assert set(polarnet.__all__) <= set(dir(polarnet))
    assert "__version__" in dir(polarnet)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match="^module 'polarnet' has no attribute 'no_such_name'$"):
        polarnet.no_such_name  # noqa: B018
    assert not hasattr(polarnet, "no_such_name")


def test_from_import_still_gives_submodules():
    from polarnet import cli, io
    assert isinstance(io, types.ModuleType) and io.__name__ == "polarnet.io"
    assert isinstance(cli, types.ModuleType) and cli.__name__ == "polarnet.cli"
    assert callable(cli.main)


@pytest.mark.parametrize("error", [
    polarnet.SchemaError("$.edges[0]", "duplicate edge 'a' -> 'b'"),
    polarnet.ParseError(2, 7, "degree value expected"),
], ids=["SchemaError", "ParseError"])
def test_re_exported_errors_survive_pickling(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)


# -- what a child process imports ----------------------------------------------

# Runs the CLI as ``python -m polarnet`` does, then lists sys.modules on stderr.
_RUN_CLI = """\
import runpy, sys
code = 0
try:
    runpy.run_module("polarnet", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(*sys.modules, file=sys.stderr)
sys.exit(code)
"""


def _modules(code, *argv):
    """The modules a ``python -c code *argv`` child holds when it ends."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", code, *argv],
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                           env={**os.environ, "PYTHONPATH": path}, timeout=120,
                           text=True)
    assert child.returncode == 0, child.stderr
    return set(child.stderr.split())


@pytest.fixture(scope="module")
def preloaded():
    """What a bare child already holds, such as ``json`` from some ``site``."""
    return _modules("import sys; print(*sys.modules, file=sys.stderr)")


def test_import_polarnet_loads_no_submodule():
    loaded = _modules("import sys, polarnet; print(*sys.modules, file=sys.stderr)")
    assert "polarnet" in loaded
    assert {f"polarnet.{name}" for name in SUBMODULES} & loaded == set()


def test_pnet_classify_child_skips_analysis_matrix_io_and_json(fixtures_dir,
                                                                preloaded):
    loaded = _modules(_RUN_CLI, "classify", str(fixtures_dir / "s1.pnet"))
    assert {"polarnet.cli", "polarnet.core", "polarnet.dsl"} <= loaded
    skipped = {"polarnet.analysis", "polarnet.matrix", "polarnet.io"}
    if "json" not in preloaded:
        skipped.add("json")
    assert skipped & loaded == set()


def test_pnet_render_child_skips_json_and_matrix(fixtures_dir, preloaded):
    loaded = _modules(_RUN_CLI, "render", str(fixtures_dir / "s1.pnet"))
    assert {"polarnet.cli", "polarnet.dsl", "polarnet.io"} <= loaded
    skipped = {"polarnet.analysis", "polarnet.matrix"}
    if "json" not in preloaded:
        skipped.add("json")
    assert skipped & loaded == set()


def test_json_validate_child_skips_dsl_analysis_and_matrix(tmp_path, s1_net):
    path = tmp_path / "s1.json"
    path.write_text(polarnet.to_json(s1_net), encoding="utf-8")
    loaded = _modules(_RUN_CLI, "validate", str(path))
    assert {"polarnet.cli", "polarnet.core", "polarnet.io"} <= loaded
    assert {"polarnet.dsl", "polarnet.analysis", "polarnet.matrix"} & loaded == set()
