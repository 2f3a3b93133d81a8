"""``tools/paired_bench.py`` stopped by SIGTERM ends its benchmark run and
removes the parent tree it extracted."""

import contextlib
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _in_git_checkout():
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                          capture_output=True).returncode == 0


def _processes_naming(path):
    """Pids of the processes whose command line names ``path``."""
    needle, pids = str(path).encode(), []
    for entry in pathlib.Path("/proc").iterdir():
        try:
            if entry.name.isdigit() and needle in (entry / "cmdline").read_bytes():
                pids.append(int(entry.name))
        except OSError:   # the process ended while it was read
            pass
    return pids


def _wait_for(predicate, seconds):
    deadline = time.monotonic() + seconds
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout")
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_sigterm_stops_the_run_and_removes_the_tree(tmp_path):
    driver = subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "paired_bench.py"), "--parent",
         "HEAD", "--pairs", "1", "--seconds", "60", "--short"],
        cwd=ROOT, env={**os.environ, "TMPDIR": str(tmp_path)},
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        assert driver.stdout.readline().startswith("parent ")
        [tree] = tmp_path.glob("paired-bench-*")
        # the first pair runs the parent's perfbench/run.py first
        assert _wait_for(lambda: _processes_naming(tree), 60)
        driver.send_signal(signal.SIGTERM)
        assert driver.wait(timeout=60) == 128 + signal.SIGTERM
        assert not list(tmp_path.glob("paired-bench-*"))
        assert not _processes_naming(tree)
    finally:
        if driver.poll() is None:
            driver.kill()
            driver.wait()
        driver.stdout.close()
        for pid in _processes_naming(tmp_path):   # what a failed run left
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
