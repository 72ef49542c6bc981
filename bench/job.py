"""Run one expaction CLI command in this fresh interpreter and time it.

Usage: python3 bench/job.py RESULT_JSON TRACE(0|1) COMMAND [CLI ARGS...]

Writes to RESULT_JSON the CLOCK_MONOTONIC instant at which `expaction.cli`
finished importing, the wall time inside `cli.main`, the process's peak RSS
and, with TRACE=1, the per-layer counters.  Exits with the CLI's status.
"""
import json
import resource
import sys
import time


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from expaction import cli

    imported_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
    start = time.perf_counter()
    try:
        status = cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        if tracer is not None:
            tracer.close()
    result = {
        "imported_at": imported_at,
        "main_s": main_s,
        "status": status,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.counters()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
