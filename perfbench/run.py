"""End-to-end benchmark of the reliability system, one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload report --seed 1 --seconds 20 --trace 0

Workloads (inputs pinned in each workload module, made from ``--seed``):

* ``report`` — cold, then incremental, render of the pinned experiments
  at quarter scale over one year (``report_workload.py``);
* ``stream-replay`` — three paper-scale shards through the streaming
  analyzer (``stream_workload.py``);
* ``serve`` — ``repro serve`` answering cold, changed and cached queries
  and event pages to one closed-loop caller (``serve_workload.py``).

End-to-end metrics (``--trace 0``; every workload reports all of them):

=============  =====================  =====================  =======================
metric         report                 stream-replay          serve
=============  =====================  =====================  =======================
setup_s        median over several fresh workload processes of start to READY
cold_s         cold render            median replay pass     median fleet q1+q2+q3
incremental_s  median re-render       median checkpoint      median q2 at another
               after a code change    resume of a last day   quantile, warm fleet
events_per_s   trace events / cold_s  events / median pass   events / median page
peak_rss_mb    workload process       workload process       server process tree
=============  =====================  =====================  =======================

Per-layer metrics (``--trace 1``) come from a separate run that wraps
each layer's public entry points (``tracer.py``); a layer a workload
never calls into reads 0.  The last line of standard output is the
result object; the line before it holds diagnostics that never enter a
metric: the host probe, the tracing overhead, sample counts, outcomes
per phase and output digests.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload processes started per run to sample ``setup_s``.
SETUP_SAMPLES = {"report": 3, "stream-replay": 3, "serve": 3}
#: Ceiling on one workload process, so a run ends well inside 180 s.
PROCESS_TIMEOUT_S = 170.0


def spawn(workload: str, seed: int, seconds: int, trace: int,
          setup_only: bool):
    """(process, seconds from start to READY)."""
    command = [sys.executable, str(HERE / "workload.py"), workload, str(seed),
               str(seconds), str(trace)] + (["setup"] if setup_only else [])
    start = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, process.kill)
    watchdog.start()  # a set-up that hangs is killed, not waited on
    try:
        line = process.stdout.readline()
    finally:
        watchdog.cancel()
    ready_s = time.perf_counter() - start
    if line.strip() != "READY":
        process.kill()
        process.wait()
        raise RuntimeError(f"{workload} failed during set-up")
    return process, ready_s


def finish(process) -> str:
    try:
        out, _ = process.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise RuntimeError("workload process timed out") from None
    if process.returncode != 0:
        raise RuntimeError(f"workload process exited {process.returncode}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SETUP_SAMPLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        process, first_setup = spawn(args.workload, args.seed, args.seconds,
                                     args.trace, setup_only=False)
        lines = finish(process).strip().splitlines()
        result = json.loads(lines[-1])
        setups = [first_setup]
        for _ in range(SETUP_SAMPLES[args.workload] - 1):
            extra, ready_s = spawn(args.workload, args.seed, args.seconds,
                                   args.trace, setup_only=True)
            finish(extra)
            setups.append(ready_s)
    except (RuntimeError, ValueError, IndexError) as error:
        print(f"perfbench: {args.workload} seed {args.seed}: {error}",
              file=sys.stderr)
        return 1

    if args.trace:
        # A layer this workload never calls into did no work: it reads 0.
        values = {m["name"]: 0 for m in wanted}
        values.update(result["layers"] or {})
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: {args.workload} produced no {missing}",
              file=sys.stderr)
        return 1
    samples = dict(result["samples"], setup_s=len(setups))
    print(json.dumps({"diagnostics": dict(
        result["diagnostics"], workload=args.workload, seed=args.seed,
        samples=samples, setup_samples_s=setups,
        problems=result["problems"])}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
