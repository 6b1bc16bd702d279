"""One fresh interpreter of a benchmark run.

Usage (from run.py): python3 perfbench/child.py '<job json>'

Times `import sylowpi` from the parent's spawn, installs the tracer when
asked, runs one job of a workload cold and prints its result as one JSON
line.  A job of None only measures set-up.
"""

import json
import sys
import time

JOB = json.loads(sys.argv[1])

import sylowpi  # noqa: E402  (the import is what set-up time measures)
import sylowpi.cli  # noqa: E402

SETUP_S = time.monotonic() - JOB["spawn_t"]

import platform  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402

import calib  # noqa: E402


def main() -> None:
    cal = calib.Calibrator()
    cal.sample()
    # set-up in calibrated seconds, scaled by the kernel sample right after it
    out = {"setup_s": SETUP_S * calib.NOMINAL_S / cal.samples[0], "raw_setup_s": SETUP_S,
           "python": platform.python_version(), "numpy": numpy.__version__}
    if JOB["job"] is not None:
        import spans
        import workloads

        tracer = None
        if JOB["trace"]:
            tracer = spans.Tracer()
            tracer.install()
            cal.sample = tracer.wrap_own("calib", cal.sample)
        cal.start()
        ps = workloads.Pass(tracer, cal)
        out.update(workloads.WORKLOADS[JOB["workload"]](JOB["job"], ps, SETUP_S))
        if tracer is not None:
            out["trace"] = tracer.summary()
            tracer.write(JOB["trace_path"])
    out["calib_s"] = cal.samples
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


main()
