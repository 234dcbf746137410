"""Closed-loop timing of whole rounds of ops, and the set-up measurements."""

from __future__ import annotations

import hashlib
import io
import os
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from oracles import CheckError
from reference import NOMINAL_S, time_task


class OpFailed(Exception):
    """The op did not do its job (raised, or ended with the wrong exit code)."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    # Untimed.  Raises OpFailed when the op failed, CheckError when an op
    # that succeeded produced a wrong output.
    judge: Callable[[object], None]
    # Set for an op that fails today because of a known program fault.
    known_fault: str | None = None


@dataclass
class LoopResult:
    # Per op: its seconds at reference speed (see ``reference``), the wall
    # seconds they were rescaled from, its kind, and the reference task's
    # seconds right after it.
    op_seconds: list[float] = field(default_factory=list)
    wall_seconds: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    reference_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    faults: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return self.attempted / sum(self.op_seconds)

    def kind_medians(self, seconds: list[float] | None = None) -> dict[str, float]:
        by_kind: dict[str, list[float]] = {}
        for kind, t in zip(self.kinds, self.op_seconds if seconds is None else seconds):
            by_kind.setdefault(kind, []).append(t)
        return {kind: statistics.median(times) for kind, times in by_kind.items()}

    @property
    def op_p50_s(self) -> float:
        """Median op time, taken inside one kind: the median of the kinds' medians.

        Kinds have equal shares and an odd count, so with well separated kinds
        this is the plain median of all ops.  Where neighbouring kinds take
        about as long (cli-artifacts: ``spectrum`` non-degenerate, ``gamma``
        and ``circuit app2_path --all-strip``), the plain median sits in the
        low tail of their merged times and swings with every slow or fast
        second of the host; the median of kind medians does not.
        """
        return statistics.median(self.kind_medians().values())

    @property
    def op_p50_wall_s(self) -> float:
        """``op_p50_s`` from the wall seconds, before rescaling."""
        return statistics.median(self.kind_medians(self.wall_seconds).values())


def attempt(op: Op, tracer=None, reference=None) -> tuple[float, float, str | None, str | None]:
    """Time one op, time ``reference`` right after it, then judge the op.

    Tracing is paused for the reference task and the judging.  Returns the
    op's wall seconds, the reference task's seconds (0 without one), why
    the op failed (or None) and what was wrong with its outputs (or None).
    """
    if tracer is not None:
        tracer.enabled = True
    start = perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # judged below, like a wrong exit code
        result, error = None, exc
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
    reference_seconds = time_task(reference) if reference is not None else 0.0
    try:
        if error is not None:
            raise OpFailed(f"{type(error).__name__}: {error}")
        op.judge(result)
    except OpFailed as exc:
        return seconds, reference_seconds, str(exc), None
    except CheckError as exc:
        return seconds, reference_seconds, None, str(exc)
    except Exception as exc:  # a check that could not read the outputs
        return seconds, reference_seconds, None, f"{type(exc).__name__}: {exc}"
    return seconds, reference_seconds, None, None


def run_loop(workload, seconds: float, tracer=None) -> LoopResult:
    """Run whole rounds until ``seconds`` of wall time have passed.

    One op runs at a time (closed loop).  The workload's reference task runs
    once before the first op and after every op; each op's wall time is
    rescaled by the mean of the two task times around it.  Checks run
    between ops, outside the timed region.
    """
    out = LoopResult()
    nominal = NOMINAL_S[workload.reference_task]
    before = time_task(workload.reference_task)
    loop_start = perf_counter()
    while perf_counter() - loop_start < seconds:
        for op in workload.round_ops():
            if tracer is not None:
                tracer.op_index = out.attempted
            op_seconds, after, failure, wrong = attempt(op, tracer, workload.reference_task)
            out.wall_seconds.append(op_seconds)
            out.op_seconds.append(op_seconds * nominal / (0.5 * (before + after)))
            out.reference_seconds.append(after)
            before = after
            out.kinds.append(op.kind)
            out.attempted += 1
            if failure is not None:
                out.failed += 1
                if op.known_fault is None:
                    out.errors.append(f"{op.kind}: unexpected failure: {failure}")
                else:
                    out.faults.setdefault(op.kind, f"{op.known_fault} ({failure})")
            if wrong is not None:
                out.errors.append(f"{op.kind}: {wrong}")
    return out


def warm_up(ops: list[Op]) -> None:
    """Run ops once before timing; any outcome but a known fault stops the run."""
    for op in ops:
        _, _, failure, wrong = attempt(op)
        if wrong is not None or (failure is not None and op.known_fault is None):
            raise SystemExit(f"set-up: {op.kind}: {wrong or failure}")


def file_hashes(directory: Path) -> dict[str, str]:
    """sha256 of every file in a directory, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def invoke(cli, argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in this process; exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _fresh_python(code: str, root: Path, extra: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, *extra, "-c", code],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )


IMPORT_CLI = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import sfwm_sim.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def measure_setup_s(root: Path, interpreters: int) -> float:
    """Median time for a fresh interpreter to import sfwm_sim.cli."""
    times = [float(_fresh_python(IMPORT_CLI, root).stdout) for _ in range(interpreters)]
    return statistics.median(times)


def import_profile(root: Path, interpreters: int) -> dict[str, float]:
    """Seconds of ``import sfwm_sim`` by package, from ``python -X importtime``.

    A package's figure sums the self time of the package's own modules; the
    total is the cumulative time of ``sfwm_sim``.  Medians over interpreters.
    """
    runs: list[dict[str, float]] = []
    for _ in range(interpreters):
        stderr = _fresh_python("import sfwm_sim", root, ("-X", "importtime")).stderr
        sums = {"total": 0.0, "scipy": 0.0, "numpy": 0.0, "yaml": 0.0}
        for line in stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            self_us, cumulative_us, module = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue  # the column header line
            module = module.strip()
            top = module.split(".")[0]
            if top in sums:
                sums[top] += int(self_us) * 1e-6
            if module == "sfwm_sim":
                sums["total"] = int(cumulative_us) * 1e-6
        runs.append(sums)
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
