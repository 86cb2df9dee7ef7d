"""Timing loop, statistics and result shape shared by every workload."""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

perf = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Environment variables that would move the measured path off the
#: program's defaults; the benchmark and its children run without them.
PINNED_ENV = ("REPRO_CHASE_ENGINE", "REPRO_REWRITE_STRATEGY")


def pinned_environment() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if key not in PINNED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Op:
    """One prepared operation: its kind, the call, and what to keep of it."""

    kind: str
    call: Callable[[], Any]
    #: Turns the call's result into a compact answer for the oracle
    #: (runs outside the timed interval); raises on an error result.
    answer: Callable[[Any], Any]
    key: Any = None


@dataclass
class Sample:
    kind: str
    seconds: float
    ok: bool
    key: Any
    answer: Any = None


@dataclass
class LoopResult:
    samples: List[Sample] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for sample in self.samples if not sample.ok)

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        """Seconds per op; a failed op counts as infinitely slow."""
        return [sample.seconds if sample.ok else math.inf
                for sample in self.samples
                if kind is None or sample.kind == kind]


def run_loop(ops: Iterator[Op], seconds: float,
             timed_call: Optional[Callable[[Op], Tuple[Any, float]]] = None,
             max_ops: Optional[int] = None,
             loop: Optional[LoopResult] = None) -> LoopResult:
    """Closed loop: each op starts when the previous one has answered.

    Runs for ``seconds`` or ``max_ops`` ops, whichever ends first,
    appending to ``loop`` when one is given.  ``timed_call`` replaces the
    plain timing of ``op.call`` (the traced run times ops under the
    ledger).  Errors are counted, never raised.
    """
    loop = loop if loop is not None else LoopResult()
    started = perf()
    deadline = started + seconds
    done = 0
    while perf() < deadline and (max_ops is None or done < max_ops):
        done += 1
        op = next(ops)
        ok = True
        result: Any = None
        try:
            if timed_call is None:
                begin = perf()
                result = op.call()
                elapsed = perf() - begin
            else:
                result, elapsed = timed_call(op)
        except Exception:  # a failed op is data, not a crash
            ok, elapsed = False, math.inf
        answer = None
        if ok:
            try:
                answer = op.answer(result)
            except Exception:
                ok = False
        loop.samples.append(Sample(op.kind, elapsed, ok, op.key, answer))
    loop.wall_seconds += perf() - started
    return loop


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (``inf`` entries sort last)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else math.nan


def cpu_seconds_of(pid: int) -> float:
    """User plus system CPU seconds a live process has used."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def source_identity() -> Dict[str, Optional[str]]:
    """The commit when the checkout is a git work tree, plus a digest of
    ``src/`` that identifies the measured code either way."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False, env=env)
        if completed.returncode == 0:
            commit = completed.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}
