"""One workload in one fresh process: set-up, measured repetitions, traced repetition.

Started by ``run.py`` (never by hand); prints one JSON document on stdout.
A fresh process per workload is what makes ``setup_s`` and ``peak_rss_mb``
per-workload numbers.

Protocol: set-up = imports + spec loading + one discarded reduced-size
warm-up repetition (CPython has no JIT to warm; the warm-up exists to finish
lazy imports and fill registries and caches, which a reduced input does at a
fraction of the cost).  Then untraced repetitions of the full-size body until
``--seconds`` of wall time and ``--min-reps`` repetitions are both spent;
every timing is reported per repetition so the caller can take medians.  With
``--trace 1`` one extra repetition runs with the span wrappers installed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
#: The warm-up repetition's input size, as a share of the measured one.
WARMUP_SCALE = 0.125


def _arguments() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-reps", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tmp", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--spans-out", help="where the traced repetition's spans go")
    parser.add_argument("--spawned-at", type=float, required=True, help="time.time() at spawn")
    return parser.parse_args()


def _report(outcome: Any) -> Dict[str, Any]:
    return {
        "work": outcome.work,
        **outcome.timing._asdict(),
        "stages": {name: [items, *timing] for name, (items, timing) in outcome.stages.items()},
        "checks": [[name, bool(passed)] for name, passed in outcome.checks],
        "fingerprint": outcome.fingerprint,
        "counts": outcome.counts,
    }


def main() -> int:
    args = _arguments()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))
    from calibrate import HostClock, untimed

    # Interpreter start-up: over before anything here can sample the host.
    setup_wall = time.time() - args.spawned_at
    host = HostClock()

    def set_up() -> Any:
        from workloads import WORKLOADS  # imports repro: most of the set-up

        build = WORKLOADS[args.workload]
        build(args.seed, args.scale * WARMUP_SCALE, args.tmp).run(untimed)
        return build(args.seed, args.scale, args.tmp)

    timing, workload = host.timed(set_up)
    setup_wall += timing.wall_s
    document: Dict[str, Any] = {
        "unit_of_work": workload.unit_of_work,
        "setup_wall_s": setup_wall,
        "setup_s": setup_wall * timing.host_s / timing.cpu_s,
    }
    if args.setup_only:
        print(json.dumps(document))
        return 0

    repetitions: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while len(repetitions) < args.min_reps or time.perf_counter() - started < args.seconds:
        repetitions.append(_report(workload.run(host.timed)))
    document["repetitions"] = repetitions
    # Before the traced repetition: its in-memory spans are not the program's memory.
    document["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        import spans

        tracer = spans.Tracer(host.wall)
        restore = spans.install(tracer)
        try:
            traced = workload.run(host.timed)
        finally:
            restore()
        totals, top_level = tracer.layer_totals()
        document["traced"] = {
            **_report(traced),
            "layers": totals,
            "top_level_busy_s": top_level,
            "processed_events": tracer.processed_events,
        }
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as handle:
                json.dump(tracer.document(), handle)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
