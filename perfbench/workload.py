"""One workload in one process: set up, say READY, measure, report.

Started by ``run.py``, which times set-up from process start to the
``READY`` line::

    python3 perfbench/workload.py <workload> <seed> <seconds> <trace> [setup]

Prints ``READY`` once the timed phase can begin and, unless ``setup``
(set-up only) was given, one JSON line with the run's metrics.
"""

from __future__ import annotations

import json
import sys

import common

WORKLOADS = {
    "report": "report_workload",
    "stream-replay": "stream_workload",
    "serve": "serve_workload",
}


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[:4]
    setup_only = argv[4:] == ["setup"]
    module = __import__(WORKLOADS[workload])
    state = module.setup(int(seed))
    print("READY", flush=True)
    if setup_only:
        teardown = getattr(module, "teardown", None)
        if teardown is not None:
            teardown(state)
        return 0
    probe_ms = common.host_probe_ms()
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
    result = module.measure(state, float(seconds), tracer)
    result["metrics"].setdefault("peak_rss_mb", common.peak_rss_mb())
    outcomes = result.pop("outcomes")
    result.update(attempted=outcomes.attempted, failed=outcomes.failed,
                  problems=outcomes.problems)
    result["diagnostics"].update(host_probe_ms=probe_ms,
                                 outcomes_by_phase=outcomes.by_phase)
    if tracer is not None and tracer.spans:
        trace_path = common.WORK_ROOT / f"trace-{workload}-seed{seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(tracer.chrome_trace()))
        result["diagnostics"]["trace_file"] = str(
            trace_path.relative_to(common.ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
