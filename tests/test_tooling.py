"""The scripts and the benchmark harness stay in step with the package."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import FunctionType, SimpleNamespace

import pytest

from tropbetti import cli

ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_corpus_check_removes_its_temporary_corpus(tmp_path, monkeypatch, capsys):
    script = _load(ROOT / "scripts" / "run_corpus_check.py")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert script.run(["--count", "2"]) == 0
    assert list(tmp_path.iterdir()) == []
    closing = capsys.readouterr().out.splitlines()[-1]
    assert closing.startswith("checked 2 systems") and str(tmp_path) not in closing


def test_run_corpus_check_checks_only_the_corpus_it_wrote(tmp_path, capsys):
    """A file left in --dir by an earlier, larger corpus is not checked."""
    script = _load(ROOT / "scripts" / "run_corpus_check.py")
    (tmp_path / "system_002.json").write_text('{"n":1,"polys":[[[[1],"0"],[[0],"0"]]]}')
    assert script.run(["--count", "2", "--dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    checked = [line.split(":")[0] for line in lines if line.startswith("system_")]
    assert checked == ["system_000.json", "system_001.json"]
    assert lines[-1].startswith("checked 2 systems")


def test_run_corpus_check_with_the_oracle(monkeypatch, capsys):
    """--oracle decides every sign vector of each arrangement with ell <= 6."""
    script = _load(ROOT / "scripts" / "run_corpus_check.py")
    judged = []
    bruteforce = cli.sign_vectors_bruteforce
    monkeypatch.setattr(cli, "sign_vectors_bruteforce", lambda arr: judged.append(arr.ell) or bruteforce(arr))
    assert script.run(["--count", "10", "--oracle"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("checked 10 systems") and lines[-1].endswith(", 0 failures")
    assert judged and max(judged) <= 6


def test_time_realized_prints_each_members_figures(monkeypatch, capsys):
    script = _load(ROOT / "scripts" / "time_realized.py")
    assert script.run(["16", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["member 16", "member 0"]
    assert lines[0].endswith("n=2 k=4 ell=14 cells=8 betti=[2]")
    assert lines[1].endswith("n=2 k=4 ell=9 cells=3 betti=[1]")

    # --repeat runs each member again from scratch and prints each stage's
    # median: a clock that steps by (realize, cells, betti) = (1, 2, 0.5),
    # (5, 9, 0.25) and (3, 4, 0.125) gives medians 3, 4 and 0.25
    steps = iter([1, 2, 0.5, 0, 5, 9, 0.25, 0, 3, 4, 0.125, 0])
    clock = [0.0]

    def perf_counter():
        now = clock[0]
        clock[0] += next(steps, 0)
        return now

    monkeypatch.setattr(script, "time", SimpleNamespace(perf_counter=perf_counter))
    assert script.run(["--repeat", "3", "16"]) == 0
    [line] = capsys.readouterr().out.splitlines()
    assert line == "member 16: realize 3.000s cells 4.000s betti 0.250s n=2 k=4 ell=14 cells=8 betti=[2]"
    with pytest.raises(SystemExit):
        script.run(["--repeat", "0", "16"])


def test_benchmark_harness_names_exist():
    """Every name the tracer wraps and the worker imports is in the package.

    A name that looks dead inside ``src/`` may still be used by the
    benchmark; deleting it would break the traced run.  The tracer wraps a
    method by reading it from the class body, so each must be a plain
    function or a classmethod there, not a property or a cached_property.
    """
    tracer = _load(ROOT / "perfbench" / "tracer.py")
    for layer in tracer.LAYERS:
        importlib.import_module(f"tropbetti.{layer}")
    for table in (tracer.METHOD_SPANS, tracer.METHOD_COUNTERS):
        for qual, methods in table.items():
            layer, cls_name = qual.split(".")
            cls = getattr(importlib.import_module(f"tropbetti.{layer}"), cls_name)
            unwrappable = [m for m in methods if not isinstance(cls.__dict__.get(m), (FunctionType, classmethod))]
            assert unwrappable == [], f"{qual} has no plain function or classmethod {unwrappable}"

    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text())
    imports = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tropbetti":
                    importlib.import_module(alias.name)
                    imports += 1
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tropbetti":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name} is missing"
                imports += 1
    assert imports > 0


def test_importing_the_cli_leaves_heavy_modules_unloaded():
    """Cold start: ``import tropbetti.cli`` loads none of these modules
    (the records are namedtuples and slotted classes, not dataclasses, and
    only ``main`` imports argparse and traceback), and the command line
    still builds its parser.  Deterministic: it lists modules, not times."""
    heavy = ("dataclasses", "inspect", "argparse", "traceback")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # modules the interpreter loaded before the import (site hooks) do not count
    code = (
        "import sys; before = set(sys.modules); import tropbetti.cli; "
        f"print(sorted(set({heavy!r}) & (set(sys.modules) - before)))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    gen = subprocess.run(
        [sys.executable, "-m", "tropbetti.cli", "gen", "grid", "--n", "2", "--m", "2"], env=env, capture_output=True
    )
    assert gen.returncode == 0 and gen.stdout.startswith(b'{"n":2')
