"""Run one wrapcheck benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 40 --trace 0

Closed loop, one operation at a time: passes run one after another, each
in a fresh worker process (worker.py), in whole cycles of the workload's
inputs, while the next cycle is expected to end within ``--seconds``
(the first cycle always runs).
Every operation's output is checked by its oracle outside the timed
region.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it repeat every metric by name and unit, with the run's facts.

With ``--trace 0`` the metrics are the end-to-end ones, measured on
untraced passes.  With ``--trace 1`` they are the per-layer ones: one
untraced pass of the workload, then one traced pass of every workload
(each per-layer metric has one home workload, see README.md), then more
traced passes of the named workload while they fit in ``--seconds``.  Each per-layer
metric is the median over the traced passes of its home workload.

Results, per-pass samples and spans are also written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT_DIR = REPO / ".bench_out"
WORKLOADS = ("corpus", "embed-float", "map-study")
# every run, traced or not, must end within this many seconds
RUN_LIMIT_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "decided_frac": "ratio"}


class WorkerError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    cores = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            wanted = int(env.get(var, cores))
        except ValueError:
            wanted = cores
        env[var] = str(max(1, min(wanted, cores)))
    return env


def run_pass(workload: str, seed: int, pass_index: int, traced: bool, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--pass-index", str(pass_index),
        "--trace", "1" if traced else "0",
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("no time left for another pass")
    try:
        proc = subprocess.run(
            cmd, cwd=REPO, env=worker_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} pass {pass_index} exceeded the run's time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(
            f"{workload} pass {pass_index} (traced={traced}) exited {proc.returncode}:\n"
            + proc.stderr[-4000:]
        )
    return json.loads(lines[-1])


def tail_percentile(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, as (percent, value)."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def end_to_end(passes: list[dict]) -> dict:
    ops = [op for p in passes for op in p["ops"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "decided_frac": sum(op["decided"] for op in ops) / len(ops),
    }


def per_layer(traced: list[dict]) -> tuple[dict, dict]:
    values: dict = {}
    units: dict = {}
    for p in traced:
        units.update(p["layer_units"])
        for name, v in p["layer"].items():
            values.setdefault(name, []).append(v)
    missing = set(units) - set(values)
    if missing:
        raise WorkerError(f"per-layer metrics not reported: {sorted(missing)}")
    return {name: statistics.median(v) for name, v in values.items()}, units


def heaviest_ops(p: dict, count: int = 3) -> list[str]:
    lines = []
    totals = {
        op: sum(v for k, v in per.items() if k not in ("algebra.basis_n", "algebra.truncation_probe"))
        for op, per in p["op_breakdown"].items()
        if op is not None
    }
    for op in sorted(totals, key=totals.get, reverse=True)[:count]:
        per = p["op_breakdown"][op]
        top = sorted(
            (k for k in per if k != "algebra.basis_and_dims"), key=per.get, reverse=True
        )[:3]
        parts = ", ".join(f"{k} {per[k]:.1f} ms" for k in top)
        lines.append(f"  {p['workload']:11s} {op:22s} {totals[op]:9.1f} ms  ({parts})")
    return lines


def run(args) -> int:
    if not (REPO / "src" / "wrapcheck" / "__init__.py").is_file():
        print(f"perfbench: no wrapcheck sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    def fits(last_s: float) -> bool:
        # start more work only if it should end within --seconds
        return time.monotonic() - start + last_s <= args.seconds

    untraced: list[dict] = []
    traced: list[dict] = []
    if not args.trace:
        # whole cycles of the workload's inputs, so every run does the same work
        while True:
            t0 = time.monotonic()
            untraced.append(run_pass(args.workload, args.seed, len(untraced), False, deadline))
            for _ in range(untraced[0]["cycle"] - 1):
                untraced.append(run_pass(args.workload, args.seed, len(untraced), False, deadline))
            if not fits(time.monotonic() - t0):
                break
    else:
        untraced.append(run_pass(args.workload, args.seed, 0, False, deadline))
        order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
        for name in order:
            t0 = time.monotonic()
            traced.append(run_pass(name, args.seed, 0, True, deadline))
            if name == args.workload:
                last_s = time.monotonic() - t0
        while fits(last_s):
            t0 = time.monotonic()
            traced.append(run_pass(args.workload, args.seed, len(traced) - 2, True, deadline))
            last_s = time.monotonic() - t0

    passes = untraced + traced
    ops = [op for p in passes for op in p["ops"]]
    failed = [f"{p['workload']} pass {p['pass_index']}: {op['op']}: {op['error']}"
              for p in passes for op in p["ops"] if not op["ok"]]
    own = [p for p in passes if p["workload"] == args.workload]
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        **own[0]["facts"],
        "passes": {w: sum(p["workload"] == w for p in passes) for w in WORKLOADS},
        "run_s": time.monotonic() - start,
    }

    if args.trace:
        metrics, units = per_layer(traced)
        own_traced = [p for p in traced if p["workload"] == args.workload and p["pass_index"] == 0]
        facts["tracing_overhead_s"] = own_traced[0]["wall_s"] - untraced[0]["wall_s"]
        facts["untraced_wall_s"] = untraced[0]["wall_s"]
    else:
        metrics, units = end_to_end(untraced), END_TO_END_UNITS
        facts["tracing_overhead_s"] = None

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {facts['passes']}  run {facts['run_s']:.1f} s")
    for name in sorted(metrics):
        print(f"  {name:48s} {metrics[name]:>16.6g} {units[name]}")
    if not args.trace:
        walls = [p["wall_s"] for p in untraced]
        tail = tail_percentile(walls)
        if tail:
            print(f"  wall_s p{tail[0]:.0f} = {tail[1]:.6g} s over {len(walls)} passes")
        else:
            print(f"  wall_s tail percentile: needs 11 passes, have {len(walls)}")
        if args.workload == "embed-float":
            print(f"  found_frac (decided_frac of this workload) {metrics['decided_frac']:.6g} ratio")
            for p in untraced[: untraced[0]["cycle"]]:
                found = sum(op["decided"] for op in p["ops"])
                print(f"    restart seed {p['facts']['search_seed']}: {found}/{len(p['ops'])} found-certified")
    else:
        print(f"  tracing overhead {facts['tracing_overhead_s']:+.4f} s on one {args.workload} pass")
        print("heaviest operations of each workload's first traced pass:")
        for p in traced:
            if p["pass_index"] == 0:
                print("\n".join(heaviest_ops(p)))
    print(f"  failed_frac {len(failed) / len(ops):.6g} ratio  ({len(failed)} of {len(ops)} operations)")
    for line in failed[:20]:
        print(f"  FAILED {line}")
    print("facts " + json.dumps(facts, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {
        "facts": facts,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failed": failed,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    if args.trace:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for p in traced:
                for span in p["spans"]:
                    fh.write(json.dumps({"workload": p["workload"], "pass": p["pass_index"], **span}) + "\n")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run kills and reaps its worker (subprocess.run does so on any exception)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        return run(args)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
