"""Run one `needlets` CLI command in this fresh process and report on it.

    python3 child.py RESULT_FILE TRACE SRC_DIR -- ARG...
    python3 child.py --provenance SRC_DIR
    python3 child.py --imports

The command's output goes to this process's stdout, as for a CLI user.
RESULT_FILE receives the import time, the time spent in `needlets.cli.main`,
the time of a calibration loop run before and after it, the peak RSS and,
when TRACE is 1, the per-layer numbers and the spans.  --imports imports only
the third-party and standard modules that `needlets` imports and prints the
monotonic clock when done: the set-up time of the package's dependencies.
"""

import sys
import time


def _import_needlets(src: str):
    sys.path.insert(0, src)
    import needlets.cli

    if not needlets.__file__.startswith(src):
        sys.exit(f"needlets was imported from {needlets.__file__}, not from {src}")
    return needlets


def calibrate(reps: int = 5) -> float:
    """Median time of a fixed loop of interpreter and small-array numpy work.

    The loop does not depend on the package, so its time tracks only how fast
    the machine runs this process at the moment: on a shared machine that
    varies by up to 2x over seconds to minutes.
    """
    import numpy as np

    times = []
    x = np.linspace(-1.0, 1.0, 8)
    for _ in range(reps):
        t0 = time.perf_counter()
        p, q = np.ones_like(x), x.copy()
        for l in range(1, 4500):
            p, q = q, ((2 * l + 1) * x * q - l * p) / (l + 1)
        s = 0
        for i in range(90000):
            s += i * i
        times.append(time.perf_counter() - t0)
    return sorted(times)[reps // 2]


def _provenance(src: str) -> dict:
    import os

    needlets = _import_needlets(src)
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    cap_env = needlets.defaults.DEGREE_CAP_ENV
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k, "unset") for k in thread_env},
        "degree_cap": needlets.degree_cap(),
        "degree_cap_env_set": cap_env in os.environ,
    }


def main() -> int:
    import json

    if sys.argv[1] == "--imports":
        import argparse, csv, dataclasses, typing  # noqa: F401,E401
        import numpy.polynomial.polynomial  # noqa: F401
        import scipy.special  # noqa: F401

        print(time.monotonic())
        return 0
    if sys.argv[1] == "--provenance":
        print(json.dumps(_provenance(sys.argv[2])))
        return 0
    result_path, trace, src = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    argv = sys.argv[5:]
    needlets = _import_needlets(src)
    t_imported = time.monotonic()

    t_cal = time.perf_counter()
    cal_before = calibrate()
    cal_elapsed = time.perf_counter() - t_cal
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    code = needlets.cli.main(argv)
    main_s = time.perf_counter() - t0
    sys.stdout.flush()
    t_cal = time.perf_counter()
    cal_after = calibrate()
    cal_elapsed += time.perf_counter() - t_cal

    import resource

    report = {
        "t_imported": t_imported,
        "main_s": main_s,
        # calibration around main: its mean time, and the time it took
        "cal_s": (cal_before + cal_after) / 2.0,
        "cal_elapsed_s": cal_elapsed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["layers"] = tracer.layers()
        report["spans"] = [s[:4] for s in tracer.spans]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
