"""Building, caching and loading the compiled transport kernel."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from otfilter import _native, transport
from otfilter.ensemble import Ensemble

SRC = Path(__file__).resolve().parent.parent / "src"

# One solve in a fresh interpreter; prints whether the kernel loaded and
# whether hashlib was imported on the way.  The inputs avoid numpy.random,
# which imports hashlib itself.
SOLVE_ONCE = """
import sys
import numpy as np
from otfilter import transport
from otfilter.ensemble import Ensemble
k = np.arange(30.0)
w = 1.0 + k % 7
transport.solve_transport(
    transport.build_cost_matrix(Ensemble(np.stack([np.sin(k), np.cos(3 * k)], axis=1))),
    transport.WeightVector(w / w.sum()),
)
print(transport._load_kernel() is not None, "hashlib" in sys.modules)
"""

needs_compiler = pytest.mark.skipif(
    shutil.which(_native._compiler()[0]) is None, reason="no C compiler"
)


def _solve_once(env=None) -> subprocess.Popen:
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-c", SOLVE_ONCE], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _plan():
    rng = np.random.default_rng(11)
    w = rng.exponential(size=40) ** 3
    w[::7] = 0.0
    cost = transport.build_cost_matrix(Ensemble(rng.integers(0, 3, size=(40, 2)).astype(float)))
    return transport.solve_transport(cost, transport.WeightVector(w / w.sum())).T


@pytest.mark.parametrize("compiler", [["false"], ["/nonexistent/cc"]], ids=["fails", "missing"])
def test_failed_build_runs_python_loop_with_same_plan(monkeypatch, tmp_path, compiler):
    expected = _plan()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "_compiler", lambda: compiler)
    assert _native.load_kernel.__wrapped__() is None
    assert not any(tmp_path.rglob("*.so")) and not any(tmp_path.rglob("*.tmp"))

    monkeypatch.setattr(transport, "_load_kernel", lambda: None)
    assert _plan().tobytes() == expected.tobytes()


def test_changed_source_or_compiler_gives_new_library_name():
    source = _native._SOURCE.read_bytes()
    compiler = _native._compiler()
    name = _native._library_name(source, compiler)
    assert name == _native._library_name(source, list(compiler))
    assert name != _native._library_name(source + b"\n", compiler)
    assert name != _native._library_name(source, [*compiler, "-g"])


@needs_compiler
def test_racing_builds_into_empty_cache_both_load(tmp_path):
    children = [_solve_once({"XDG_CACHE_HOME": str(tmp_path)}) for _ in range(2)]
    outputs = [child.communicate(timeout=300) for child in children]
    for child, (out, err) in zip(children, outputs):
        assert child.returncode == 0, err
        assert out.split() == ["True", "False"]
    cache = tmp_path / "otfilter"
    assert cache.stat().st_mode & 0o777 == 0o700
    assert [p.suffix for p in cache.iterdir()] == [".so"]


@needs_compiler
def test_unwritable_cache_builds_in_private_directory(monkeypatch, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
    assert _native.load_kernel.__wrapped__() is not None


def test_one_solve_does_not_import_hashlib():
    # hashlib adds megabytes of resident memory to a process that solves.
    child = _solve_once()
    out, err = child.communicate(timeout=300)
    assert child.returncode == 0, err
    assert out.split()[1] == "False"
