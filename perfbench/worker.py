"""One benchmark pass in a fresh process; started by run.py, one at a time.

    python3 perfbench/worker.py --workload corpus --seed 0 --pass-index 0 --trace 0

Prints one JSON object as its last line of standard output: the set-up
time (first statement to first timed operation), the pass's wall time,
the process's peak RSS, one oracle result per operation, and, when
traced, the per-layer metrics, a per-operation breakdown and the spans.
A fresh process per pass matters: ``basis_and_dims`` and the exact
stage's candidate lists are lru_cached on value-equal inputs, so a second
pass in one process would read the caches that every ``wrapcheck`` run
has to fill.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None when it cannot be asked."""
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def op_breakdown(tracer, basis_n_by_op) -> dict:
    """Self milliseconds per operation and span name."""
    out: dict = {}
    for span, t in zip(tracer.spans, tracer.self_times()):
        per = out.setdefault(span["op"], {})
        per[span["name"]] = per.get(span["name"], 0.0) + 1000.0 * t
    for op, ms in basis_n_by_op.items():
        per = out.setdefault(op, {})
        per["algebra.basis_n"] = ms
        per["algebra.truncation_probe"] = per.get("algebra.basis_and_dims", 0.0) - ms
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    w = workloads.WORKLOADS[args.workload]
    tracer = Tracer()
    if args.trace:
        workloads.install(tracer)
        tracer.recording = True
    inputs = w.prepare(args.seed, args.pass_index)
    start, cpu_start = time.perf_counter(), time.process_time()
    outputs = w.run(inputs, tracer)
    end, cpu_end = time.perf_counter(), time.process_time()
    tracer.recording = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "workload": args.workload,
        "pass_index": args.pass_index,
        "traced": bool(args.trace),
        "cycle": w.cycle,
        "setup_s": start - T0,
        "wall_s": end - start,
        "cpu_s": cpu_end - cpu_start,
        "peak_rss_mb": peak_rss_mb,
        "ops": w.check(inputs, outputs),
        "facts": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": blas_threads(),
            **w.facts(args.seed, args.pass_index),
        },
    }
    if args.trace:
        metrics, basis_n_by_op = w.layer_metrics(tracer, inputs, outputs)
        result["layer"] = metrics
        result["layer_units"] = w.layer_units
        result["op_breakdown"] = op_breakdown(tracer, basis_n_by_op)
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
