"""Helpers shared by the benchmark parent, its children and the CLI shim.

Standard library only: the parent process never imports the program, so
its own memory and start-up never mix into what it measures.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return quantile(values, 0.5)


#: Median of :func:`calibrate` on a 2-vCPU Intel Xeon VM with an idle host.
CALIBRATION_REFERENCE_S = 0.0033

_CAL_KEYS = [(i * 2654435761) % 1000003 for i in range(30000)]
# 2 MiB each, allocated once: the kernel adds a constant 4 MiB to the peak
# RSS of a benchmark child and never a transient allocation.
_CAL_SOURCE = bytes(2 << 20)
_CAL_TARGET = bytearray(2 << 20)


def calibrate() -> float:
    """Time one pass of a fixed kernel that runs no program code.

    Sorting, dict building and 8 MiB of copies: interpreter speed and
    memory bandwidth, which are what a shared host's neighbours take away.
    """
    start = time.perf_counter()
    ordered = sorted(_CAL_KEYS)
    index = {key: i for i, key in enumerate(ordered[:10000])}
    for _ in range(4):
        _CAL_TARGET[:] = _CAL_SOURCE
    if len(index) < 0:  # keep the result alive
        raise AssertionError
    return time.perf_counter() - start


class HostClock:
    """Host speed over one run, from the calibration kernel.

    On a shared VM the speed of the host drifts by a third over minutes,
    which would read as a regression or a gain of the program.  The run
    times :func:`calibrate` between its operations, and ``factor()`` is
    the median over the reference; a timing divided by it is in
    reference-host seconds, a rate multiplied by it in reference-host
    rates.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(calibrate())
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Sample once per 50 ms since the last sample, at most five times."""
        due = int((time.perf_counter() - self._last) / 0.05)
        if due:
            self.sample(min(due, 5))

    def factor(self) -> float:
        return median(self.samples) / CALIBRATION_REFERENCE_S


def child_env() -> dict[str, str]:
    """Environment for every process that runs the program.

    ``REPRO_*`` settings of the calling shell are dropped so that the
    program sees only what the workload passes on its command line.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def build() -> None:
    """Byte-compile the program once, as an installed copy would be.

    A fresh checkout has no ``__pycache__``; without this, the first
    process of a run would pay the compilation inside a timed import.
    """
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=600,
    )
    if done.returncode != 0:
        raise ChildFailed("byte-compiling src/ failed")


def run_rusage(argv: list[str], *, timeout: float = 170.0):
    """Run a child to completion; return ``(wall_s, rc, stdout, maxrss_kb)``.

    The wall clock runs from spawn to reaping, and the peak RSS is the
    child's own ``ru_maxrss`` from ``wait4``.  Standard output goes to a
    file so that the child never blocks on a full pipe.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    out_path = WORK / f"stdout-{os.getpid()}.txt"
    err_path = WORK / f"stderr-{os.getpid()}.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes()
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text("utf-8", "replace")[-4000:])
    out_path.unlink(missing_ok=True)
    err_path.unlink(missing_ok=True)
    return wall, proc.returncode, stdout, usage.ru_maxrss


def repro_cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *map(str, args)]


def run_child(task: dict, *, timeout: float = 170.0) -> dict:
    """Run one task of ``child.py`` in a fresh interpreter; return its result."""
    WORK.mkdir(parents=True, exist_ok=True)
    spec = WORK / f"task-{os.getpid()}-{time.monotonic_ns()}.json"
    result = spec.with_suffix(".out.json")
    spec.write_text(json.dumps(task), encoding="utf-8")
    try:
        _, rc, _, _ = run_rusage(
            [sys.executable, str(HERE / "child.py"), str(spec), str(result)],
            timeout=timeout,
        )
        if rc != 0 or not result.is_file():
            raise ChildFailed(f"child task {task.get('task')!r} exited {rc}")
        return json.loads(result.read_text(encoding="utf-8"))
    finally:
        spec.unlink(missing_ok=True)
        result.unlink(missing_ok=True)


class ChildFailed(RuntimeError):
    """A process running the program exited non-zero."""


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def machine_block() -> dict:
    """Where a result was measured: cores, CPU, interpreter, libraries, code."""
    from importlib import metadata

    def version(name: str) -> str | None:
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # A checkout without .git has no commit; src_sha256 identifies its code.
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            )
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }
