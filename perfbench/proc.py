"""One CLI child at a time: spawn, wait, and read its own resource usage."""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAWNER = Path(__file__).with_name("spawner.py")


@dataclass
class Child:
    argv: list[str]
    rc: int
    wall_s: float
    maxrss_kb: int
    stdout: Path
    stderr: Path

    def out(self) -> str:
        return self.stdout.read_text(encoding="utf-8")

    def err(self) -> str:
        return self.stderr.read_text(encoding="utf-8")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """A small process that starts every child and reports its usage.

    A child's ``ru_maxrss`` counts the high-water mark of the memory map it
    was spawned from: Linux folds it in at exec, and ``posix_spawn`` execs
    from the parent's map.  The benchmark holds whole documents, more than a
    small command uses, so children come from ``spawner.py``, which holds
    nothing, in a session of its own so that both can be stopped together.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(SPAWNER)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=child_env(), text=True, start_new_session=True,
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> Child:
        self.proc.stdin.write(json.dumps([argv, str(stdout), str(stderr)]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the spawner exited with code {self.proc.wait()}")
        rc, wall, maxrss_kb = json.loads(line)
        return Child(argv, rc, wall, maxrss_kb, stdout, stderr)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def kill(self) -> None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()


_spawner: Spawner | None = None


@contextlib.contextmanager
def spawning():
    """Children started in this block come from one spawner, stopped at its end."""
    global _spawner
    _spawner = Spawner()
    try:
        yield
    except BaseException:
        _spawner.kill()
        raise
    else:
        _spawner.close()
    finally:
        _spawner = None


def run_python(args: list[str], stdout: Path, stderr: Path) -> Child:
    """Run ``python <args>`` from spawn to exit, with its own max RSS."""
    if _spawner is None:
        raise RuntimeError("children run only inside proc.spawning()")
    return _spawner.run([sys.executable, *args], stdout, stderr)


def run_cli(args: list[str], stdout: Path, stderr: Path) -> Child:
    return run_python(["-m", "gkmgraph.cli", *args], stdout, stderr)
