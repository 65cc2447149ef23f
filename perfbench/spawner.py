"""Starts the benchmark's children and reports each one's own resource usage.

Runs as its own small process (see ``proc.Spawner``).  Reads one request per
line on standard input, a JSON list ``[argv, stdout_path, stderr_path]``, runs
``argv`` from spawn to exit with its output in those files, and answers with
one line ``[exit_code, wall_seconds, max_rss_kb]``.  Exits at end of input.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time

CPU_LIMIT_S = 150


def spawn(argv: list[str], stdout: str, stderr: str) -> list:
    """Run ``argv`` with its output in files, so no pipe can fill up.

    ``os.wait4`` gives the usage of this child alone, not the cumulative
    ``RUSAGE_CHILDREN``.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_CLOSE, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    try:
        try:
            resource.prlimit(pid, resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S))
        except ProcessLookupError:
            pass  # already exited; wait4 still reaps it
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return [os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss]


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(spawn(*json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
