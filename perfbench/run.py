"""Run one workload of the end-to-end benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_reads --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` is a separate run that records spans around every public
call, replays the inputs at each layer boundary and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The result
is also kept under ``.perfbench/results/`` (see ``compare.py``) and a
traced run's spans under ``.perfbench/traces/``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
STATE = ROOT / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_reads", "hot_reads", "durable_churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is the self-test scale")
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src/``, and nowhere else."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SOURCE}/repro")
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != (SOURCE / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SOURCE}")
    return repro


PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of every process it starts, however
    deep: a worker whose parent dies first is re-parented here, not to
    init, so :func:`end_children` can still wait for it."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: end_children still ends the direct children


def children() -> list:
    """Pids of this process's live children, read from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended while we looked
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            found.append(int(entry))
    return found


def end_children(grace: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    ``multiprocessing``'s spawn start method leaves a resource-tracker
    process that only ends once this process exits, and then unreaped;
    it is stopped here by closing its pipe.  Anything else still alive
    after ``grace`` seconds (a worker orphaned by a serving process that
    had to be terminated) is killed.  Every child is reaped.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None  # reaped below, with the rest
    deadline = time.monotonic() + grace
    while True:
        pids = children()
        if not pids:
            return
        for pid in pids:
            try:
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, os.WNOHANG)
            except (ProcessLookupError, ChildProcessError):
                pass  # already reaped
        time.sleep(0.01)


def main(argv=None) -> int:
    args = parse_args(argv)
    # The hash seed comes from --seed, like the inputs: the hash layout
    # alone moved the hot-read median between 0.11 and 0.16 ms, so a set
    # of seeds samples it, and a run can be repeated exactly.
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": hash_seed})
    # One CPU for the client, the server and every worker, set before any
    # import starts a thread: a closed loop never runs two of them at
    # once, and a request handed between vCPUs pays a wake-up latency
    # that varies threefold from run to run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    adopt_orphans()
    try:
        return measure(args)
    finally:
        end_children()


def measure(args: argparse.Namespace) -> int:
    import_program()
    import workloads
    from spans import Tracer

    tracer = Tracer(bool(args.trace))
    workdir = STATE / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, tracer,
                                workloads.SCALES[args.scale], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}"
    if tracer.enabled:
        tracer.write(STATE / "traces" / f"{tag}.jsonl")

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"scale={args.scale} inputs={outcome.fingerprint} samples={outcome.samples} "
          f"attempted={outcome.attempted} failed={outcome.failed} "
          f"wall_s={time.perf_counter() - started:.1f}")
    for message in outcome.errors:
        print(f"perfbench CHECK FAILED: {message}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "scale": args.scale, "inputs": outcome.fingerprint, **result}
    (results / f"{tag}-{int(time.time() * 1000)}.json").write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
