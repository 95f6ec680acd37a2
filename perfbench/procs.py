"""Program processes, watched from outside through ``/proc``."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import time
from typing import List

TICK = os.sysconf("SC_CLK_TCK")


def _vcpus() -> int:
    with open("/proc/stat") as handle:
        return sum(1 for line in handle
                   if line.startswith("cpu") and line[3].isdigit())


#: vCPUs the host steal counter of ``/proc/stat`` is summed over.
VCPUS = _vcpus()


class ProgramError(RuntimeError):
    """A program process died, hung, or answered out of protocol."""


def host_steal_seconds() -> float:
    """Seconds the hypervisor took from this VM's CPUs since boot."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / TICK


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU of every thread of ``pid``, dead ones included."""
    with open("/proc/%d/stat" % pid) as handle:
        rest = handle.read().rsplit(")", 1)[1].split()
    return (int(rest[11]) + int(rest[12])) / TICK


def peak_rss_mb(pid: int) -> float:
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ProgramError("no VmHWM for pid %d" % pid)


class Program:
    """One program process, started and timed until it says it is ready.

    ``setup_wall_s`` is the wall time from spawning the interpreter until
    the first stdout line starting with ``ready_prefix``; ``setup_steal_s``
    is the host steal over the same interval.  Stderr goes to a file so a
    chatty program can never block on a full pipe.
    """

    def __init__(self, argv: List[str], *, env: dict, cwd: str,
                 ready_prefix: bytes, stderr_path: str,
                 timeout: float = 120.0) -> None:
        self._stderr_path = stderr_path
        self._stderr = open(stderr_path, "wb")
        steal0 = host_steal_seconds()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self._stderr)
        self.pid = self.proc.pid
        self._buf = b""
        try:
            self.ready_line = self.readline(timeout)
            while not self.ready_line.startswith(ready_prefix):
                self.ready_line = self.readline(timeout)
        except ProgramError:
            self.kill()
            raise
        self.setup_wall_s = time.perf_counter() - t0
        self.setup_steal_s = host_steal_seconds() - steal0

    def readline(self, timeout: float = 120.0) -> bytes:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise ProgramError("pid %d: no reply within %.0fs"
                                   % (self.pid, timeout))
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise ProgramError("pid %d exited (rc=%s)%s"
                                   % (self.pid, self.proc.poll(),
                                      self.stderr_tail()))
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line

    def read_exact(self, n: int, timeout: float = 120.0) -> bytes:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while len(self._buf) < n:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise ProgramError("pid %d: short reply" % self.pid)
            chunk = os.read(fd, max(1 << 16, n - len(self._buf)))
            if not chunk:
                raise ProgramError("pid %d exited mid-reply%s"
                                   % (self.pid, self.stderr_tail()))
            self._buf += chunk
        data, self._buf = self._buf[:n], self._buf[n:]
        return data

    def stderr_tail(self) -> str:
        """The end of what the process wrote to stderr, for error messages."""
        self._stderr.flush()
        with open(self._stderr_path, "rb") as handle:
            handle.seek(max(0, os.path.getsize(self._stderr_path) - 2000))
            tail = handle.read().decode(errors="replace").strip()
        return ": " + tail if tail else ""

    def send(self, data: bytes) -> None:
        self.proc.stdin.write(data)
        self.proc.stdin.flush()

    def cpu_seconds(self) -> float:
        return process_cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)

    def stop(self, *, sigterm: bool, timeout: float = 60.0) -> List[bytes]:
        """End the process the way its users do; returns its last lines.

        ``sigterm`` drains a daemon; otherwise closing stdin ends it.
        Raises :class:`ProgramError` unless it exits 0 in time.
        """
        if sigterm and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            # Closes stdin, which ends a publisher.
            rest, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ProgramError("pid %d did not exit in %.0fs"
                               % (self.pid, timeout)) from None
        finally:
            self._stderr.close()
        if self.proc.returncode != 0:
            raise ProgramError("pid %d exited rc=%d%s"
                               % (self.pid, self.proc.returncode,
                                  self.stderr_tail()))
        return (self._buf + (rest or b"")).splitlines()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        self._stderr.close()


def stop_all(programs: List[Program]) -> None:
    """Kill whatever is still running and reap it (error paths)."""
    for prog in programs:
        prog.kill()
