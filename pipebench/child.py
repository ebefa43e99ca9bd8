"""One measured run of the pipeline, in a fresh process started by run.py.

    python3 child.py RESULT_JSON SETUP_STAGES TIMED_STAGES TRACE -- CLI_FLAGS...

Stages are comma-separated CLI stage names (``-`` for none; ``all`` runs
``cascademine all``). The set-up stages run first, then the timed section
once; RESULT_JSON gets the clock readings ``t0``/``t1`` around it. With
no timed stages the child only measures set-up. With TRACE=1 the public functions of each module are wrapped from outside (see
tracing.py) and each stage gets a ``cli.<stage>`` span, its peak RSS so far and
the spans of the calls inside it.

The clock is ``time.perf_counter``, which on Linux reads CLOCK_MONOTONIC, the
same clock the parent read just before starting this process, so the parent
can take set-up time as (start of the timed section - launch).
"""

from __future__ import annotations

import json
import resource
import sys
from contextlib import nullcontext


def _stages(arg: str) -> list[str]:
    return [] if arg == "-" else arg.split(",")


def main(argv: list[str]) -> int:
    result_path, setup, timed, trace = argv[:4]
    flags = argv[argv.index("--") + 1:]
    import tracing  # the benchmark's own module, next to this file

    from cascademine import cli

    tracer = tracing.Tracer() if trace == "1" else None

    def run_stage(name: str) -> int:
        if tracer is None:
            return cli.main([name, *flags])
        with tracer.span(f"cli.{name}"):
            code = cli.main([name, *flags])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer.counters[f"cli.{name}.maxrss_mb"] = rss_mb
        return code

    with tracing.patched(tracer) if tracer is not None else nullcontext():
        for name in _stages(setup):
            code = run_stage(name)
            if code:
                return code
        t0 = tracing.now()
        for name in _stages(timed):
            if name == "all" and tracer is not None:
                names = [stage for stage, _ in cli.ALL_STAGES]
            else:
                names = [name]
            for stage in names:
                code = run_stage(stage)
                if code:
                    return code
        t1 = tracing.now()

    record = {"t0": t0, "t1": t1, "module": cli.__file__}
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counters"] = tracer.counters
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
