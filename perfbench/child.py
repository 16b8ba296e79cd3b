"""One photonfluid CLI run in a fresh process; started by `run.py`.

    python3 child.py MODE RESULT_JSON STAGE --config CFG

MODE is `setup` (stop when the stage runner is entered), `run` (an
uninstrumented run) or `trace` (a run under `tracer.Tracer`, followed by
the FFT yardstick).  The result JSON holds CLOCK_MONOTONIC marks, which
the parent compares with its own spawn time, the return code of
`photonfluid.cli.main` and the process's peak RSS.  The only hook in an
uninstrumented run is one clock read at stage-runner entry.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


class _SetupDone(BaseException):
    """Unwinds `main()` at stage-runner entry in `setup` mode."""


def run(mode: str, result_path: str, argv: list[str]) -> int:
    from photonfluid import cli

    marks: dict = {}
    name = "run_" + argv[0]
    runner = getattr(cli, name)

    def stage_runner(*args, **kwargs):
        marks["stage_start"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        return runner(*args, **kwargs)

    setattr(cli, name, stage_runner)
    main = cli.main
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(run_id=os.path.basename(os.path.dirname(result_path)))
        tracer.install()
        main = tracer.wrap(cli.main, "cli.main")

    result: dict = {"rc": None}
    marks["main_start"] = time.monotonic()
    try:
        result["rc"] = main(argv)
    except _SetupDone:
        pass
    marks["main_end"] = time.monotonic()
    result.update(marks)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        from tracer import fft_pair_ms

        tracer.uninstall()
        layers = result["layers"] = tracer.metrics()
        layers["fft.pair_ms.512x512"] = fft_pair_ms((512, 512))
        layers["fft.pair_ms.64x4"] = fft_pair_ms((64, 4))
        layers["fluid.evolve.step_over_fft"] = (
            layers["fluid.evolve.ms_per_step"] / layers["fft.pair_ms.512x512"])
        result["largest_array"] = tracer.largest_array
        result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[3:]))
