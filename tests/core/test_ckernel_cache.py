"""The columnar C kernel's per-host build cache and its failure logging.

Every test points :data:`tempfile.tempdir` at its own ``tmp_path`` and
resets the module's once-per-process state, so the cache directory, the
compile count and the log records all belong to the test alone.
"""

import logging
import os
import shutil
import subprocess
import tempfile

import pytest

from repro.core import ckernel

needs_cc = pytest.mark.skipif(
    ckernel._find_cc() is None, reason="no C toolchain"
)


def _is_compile(argv):
    return "-shared" in argv


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """Isolated temp root, reset kernel state, and a compile counter."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.delenv("REPRO_COLUMNAR_KERNEL", raising=False)
    monkeypatch.setattr(ckernel, "_tried", False)
    monkeypatch.setattr(ckernel, "_lib", None)
    compiles = []
    real_run = subprocess.run

    def counting_run(argv, *args, **kwargs):
        if _is_compile(argv):
            compiles.append(argv)
        return real_run(argv, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    return compiles


def _reset(monkeypatch):
    """Forget the loaded kernel, as a new process would."""
    monkeypatch.setattr(ckernel, "_tried", False)
    monkeypatch.setattr(ckernel, "_lib", None)


def _cache_path(tmp_path):
    return tmp_path / f"repro-ckernel-{os.getuid()}"


def _key_file(tmp_path):
    key = ckernel._cache_key(ckernel._find_cc(), ckernel._CFLAGS)
    return _cache_path(tmp_path) / f"kernel-{key}.so"


def _kernel_files(tmp_path):
    return sorted(p.name for p in _cache_path(tmp_path).glob("kernel-*.so"))


@needs_cc
class TestCache:
    def test_second_load_compiles_nothing(self, fresh, monkeypatch, tmp_path):
        assert ckernel.load() is not None
        assert len(fresh) == 1
        assert _kernel_files(tmp_path) == [_key_file(tmp_path).name]
        mode = os.lstat(_cache_path(tmp_path)).st_mode
        assert mode & 0o777 == 0o700

        _reset(monkeypatch)
        assert ckernel.load() is not None
        assert len(fresh) == 1
        # No build directory is left behind.
        assert not list(_cache_path(tmp_path).glob("repro-ckernel-build-*"))

    def test_truncated_cached_file_is_rebuilt_and_replaced(
        self, fresh, monkeypatch, tmp_path
    ):
        assert ckernel.load() is not None
        path = _key_file(tmp_path)
        good_size = path.stat().st_size
        # A new inode, not an in-place truncate: the first build's
        # mapping in this process must stay intact.
        partial = path.with_suffix(".partial")
        partial.write_bytes(path.read_bytes()[:64])
        os.replace(partial, path)

        _reset(monkeypatch)
        assert ckernel.load() is not None
        assert len(fresh) == 2
        assert path.stat().st_size == good_size

        _reset(monkeypatch)
        assert ckernel.load() is not None
        assert len(fresh) == 2


def _symlink(cache, tmp_path):
    target = tmp_path / "elsewhere"
    target.mkdir(mode=0o700)
    cache.symlink_to(target)
    return target


def _group_writable(cache, tmp_path):
    cache.mkdir()
    cache.chmod(0o770)
    return cache


def _world_writable(cache, tmp_path):
    cache.mkdir()
    cache.chmod(0o707)
    return cache


def _not_a_directory(cache, tmp_path):
    cache.write_bytes(b"not a directory")
    return None


def _other_owner(cache, tmp_path):
    cache.mkdir(mode=0o700)
    os.chown(cache, os.getuid() + 1, -1)
    return cache


@needs_cc
@pytest.mark.parametrize(
    "make_bad",
    [
        pytest.param(_symlink, id="symlink"),
        pytest.param(_group_writable, id="group-writable"),
        pytest.param(_world_writable, id="world-writable"),
        pytest.param(_not_a_directory, id="not-a-directory"),
        pytest.param(
            _other_owner,
            id="other-owner",
            marks=pytest.mark.skipif(
                os.getuid() != 0, reason="chown to another user needs root"
            ),
        ),
    ],
)
def test_untrusted_cache_directory_is_never_read(
    fresh, monkeypatch, tmp_path, caplog, make_bad
):
    caplog.set_level(logging.INFO, logger=ckernel.__name__)
    cache = _cache_path(tmp_path)
    planted_dir = make_bad(cache, tmp_path)
    planted = None
    if planted_dir is not None:
        planted = planted_dir / _key_file(tmp_path).name
        planted.write_bytes(b"planted, must never be loaded")

    loaded = []
    real_cdll = ckernel.ctypes.CDLL

    def recording_cdll(path, *args, **kwargs):
        loaded.append(os.path.realpath(path))
        return real_cdll(path, *args, **kwargs)

    monkeypatch.setattr(ckernel.ctypes, "CDLL", recording_cdll)
    assert ckernel.load() is not None
    assert len(fresh) == 1  # a private build
    forbidden = {os.path.realpath(cache)}
    if planted_dir is not None:
        forbidden.add(os.path.realpath(planted_dir))
    assert loaded
    assert all(os.path.dirname(path) not in forbidden for path in loaded)
    if planted is not None:
        assert planted.read_bytes() == b"planted, must never be loaded"
        assert sorted(p.name for p in planted_dir.iterdir()) == [planted.name]
    # The private build directory is gone again.
    assert not list(tmp_path.glob("repro-ckernel-build-*"))
    infos = [r for r in caplog.records if r.levelno == logging.INFO]
    assert len(infos) == 1 and "privately" in infos[0].getMessage()
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


@needs_cc
def test_key_changes_with_source_and_flags(monkeypatch):
    cc = ckernel._find_cc()
    base = ckernel._cache_key(cc, ckernel._CFLAGS)
    assert ckernel._cache_key(cc, ckernel._CFLAGS) == base
    assert ckernel._cache_key(cc, ("-O3", "-shared", "-fPIC")) != base
    # Flags are not merely concatenated.
    assert ckernel._cache_key(cc, ("-O2", "-sharedfPIC")) != ckernel._cache_key(
        cc, ("-O2", "-shared", "fPIC")
    )
    monkeypatch.setattr(ckernel, "_SOURCE", ckernel._SOURCE + "\n")
    assert ckernel._cache_key(cc, ckernel._CFLAGS) != base


class TestFallbackLogging:
    """A kernel that is wanted but cannot be built says so, once."""

    @pytest.fixture
    def log(self, fresh, caplog):
        caplog.set_level(logging.INFO, logger=ckernel.__name__)
        return caplog

    @staticmethod
    def _fake_cc(monkeypatch, compile_result):
        monkeypatch.setattr(shutil, "which", lambda name: f"/usr/bin/{name}")

        def fake_run(argv, *args, **kwargs):
            if _is_compile(argv):
                return compile_result(argv)
            return subprocess.CompletedProcess(argv, 0, b"cc (fake) 1.0\n", b"")

        monkeypatch.setattr(subprocess, "run", fake_run)

    @staticmethod
    def _warnings(records):
        return [r for r in records if r.levelno == logging.WARNING]

    def test_no_compiler(self, log, monkeypatch):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        assert ckernel.load() is None
        assert ckernel.load() is None
        (warning,) = self._warnings(log.records)
        assert "no C compiler" in warning.getMessage()

    def test_compiler_error_includes_stderr_tail(self, log, monkeypatch):
        stderr = b"".join(b"noise %d\n" % i for i in range(20)) + b"kernel.c:1: error: boom\n"
        self._fake_cc(
            monkeypatch,
            lambda argv: subprocess.CompletedProcess(argv, 1, b"", stderr),
        )
        assert ckernel.load() is None
        assert ckernel.load() is None
        (warning,) = self._warnings(log.records)
        message = warning.getMessage()
        assert "exited 1" in message
        assert "kernel.c:1: error: boom" in message
        assert "noise 0\n" not in message

    def test_compiler_timeout(self, log, monkeypatch):
        def hang(argv):
            raise subprocess.TimeoutExpired(argv, ckernel._CC_TIMEOUT_SEC)

        self._fake_cc(monkeypatch, hang)
        assert ckernel.load() is None
        (warning,) = self._warnings(log.records)
        assert "timed out" in warning.getMessage()

    def test_disabled_kernel_is_silent(self, log, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR_KERNEL", "0")
        monkeypatch.setattr(shutil, "which", lambda name: None)
        assert ckernel.load() is None
        assert not log.records
