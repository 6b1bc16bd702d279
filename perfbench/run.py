"""sylowpi benchmark: four closed-loop workloads with end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced and traced

Run from the root of a checkout.  Every operation runs in a child process
(`child.py`) with a pinned environment; one caller, one operation at a
time, no threads.  A run repeats the workload's fixed work (a pass) a
fixed number of times, sized so that the run takes about --seconds (see
PASSES), and makes at least MIN_OPS operations.  The last line of output is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

RUN_LIMIT_S = 170   # every run must end within 180 s
MIN_OPS = 11        # op_tail_ms needs at least 10 samples beyond its percentile
MIN_SETUPS = 5      # setup_s is the median of at least this many fresh interpreters
# passes per run at --seconds 20, the run length BENCHMARK.json sets (about
# 20-30 s per run on 2 vCPUs); the pass count does not depend on how fast a
# pass went, so two commits are always measured on the same work
PASSES = {"corpus": 13, "products": 1, "criterion": 6, "large": 3}

CORPUS = ("Alt:5", "Alt:6", "Lie:A:2:4", "Lie:A:2:5", "Lie:A:2:7",
          "Lie:A:2:8", "Lie:A:2:9", "Lie:A:2:11")
PARTS = CORPUS + tuple(f"Cyclic:{p}" for p in (2, 3, 5, 7, 11))
PAIRS = [(a, b) for i, a in enumerate(PARTS) for b in PARTS[i:]]
LARGE = ("Alt:7", "Lie:A:2:9,Cyclic:5", "Lie:A:2:8,Cyclic:3", "Sym:6,Cyclic:2",
         "Lie:A:2:11,Cyclic:2")
WORKLOADS = ("corpus", "products", "criterion", "large")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))

WITNESSES = (["I"] + [f"II.{i}" for i in range(1, 18)] + ["III"]
             + [f"IV.{i}" for i in range(1, 9)] + [f"V.{i}" for i in range(1, 16)]
             + [f"VI.{i}" for i in range(1, 4)] + [f"VII.{i}" for i in range(1, 11)]
             + ["none"])
PER_LAYER = (
    ("permbrute.realize.s", "s"), ("permbrute.realize.calls", "count"),
    ("permbrute.realize.wasted_s", "s"),
    ("permbrute.table.s", "s"), ("permbrute.table.calls", "count"),
    ("permbrute.table.bytes_computed", "bytes"),
    ("permbrute.lattice.s", "s"), ("permbrute.lattice.classes", "count"),
    ("permbrute.lattice.subgroups", "count"),
    ("permbrute.closure.s", "s"), ("permbrute.closure.calls", "count"),
    ("permbrute.maxpi.s", "s"), ("permbrute.maxpi.calls", "count"),
    ("permbrute.structure.s", "s"),
    ("catalog.prime_power.s", "s"), ("catalog.prime_power.calls", "count"),
    ("catalog.ensure_valid.s", "s"), ("catalog.ensure_valid.calls", "count"),
    ("catalog.facts.s", "s"), ("catalog.facts.calls", "count"),
    ("catalog.facts.failed", "count"),
    ("criterion.decide.s", "s"), ("criterion.decide.calls", "count"),
    ("arith.prime_divisors.s", "s"), ("arith.mult_order.s", "s"),
    ("composition.decide.s", "s"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.outside_ops_s", "s"), ("trace.spans", "count"),
) + tuple((f"criterion.witness.{w}", "count") for w in WITNESSES)


def pass_jobs(workload: str, seed: int, index: int, trace: bool) -> list[dict]:
    """The child jobs of one pass.  Every pass of a run is the same work."""
    rng = random.Random(seed)
    if workload == "corpus":
        return [{}]
    if workload == "products":
        # one fixed order: every op of a pass leaves its product in sylowpi's
        # realize cache, so the garbage collector's cost inside an op depends
        # on the ops before it, and a shuffled order moved op_p50 by 25 %
        return [{"pairs": PAIRS}]
    if workload == "criterion":
        return [{"seed": seed, "check": index == 0, "facts_probe": trace}]
    groups = list(LARGE)
    rng.shuffle(groups)
    return [{"group": g} for g in groups]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DPI_CORPUS_BOUND", None)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(workload: str, job, trace: bool, trace_path: Path | None, deadline: float) -> dict:
    payload = {"workload": workload, "job": job, "trace": trace,
               "trace_path": trace_path and str(trace_path), "spawn_t": time.monotonic()}
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(payload)],
                          capture_output=True, text=True, env=child_env(),
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    for old in OUT.glob(f"{workload}-seed{seed}-*.npz"):
        old.unlink()
    passes: list[list[dict]] = []
    n_children = n_ops = 0
    while len(passes) < max(1, round(PASSES[workload] * seconds / 20)) or n_ops < MIN_OPS:
        results = []
        for job in pass_jobs(workload, seed, len(passes), trace):
            path = OUT / f"{workload}-seed{seed}-{n_children}.npz"
            results.append(spawn(workload, job, trace, path, deadline))
            n_children += 1
            n_ops += len(results[-1]["ops"])
        passes.append(results)
    # children that only import, so that setup_s is a median of MIN_SETUPS
    extra = [spawn(workload, None, False, None, deadline)
             for _ in range(MIN_SETUPS - n_children)]
    return summarize(workload, seed, trace, passes, extra)


def summarize(workload, seed, trace, passes, extra) -> dict:
    children = [r for p in passes for r in p]
    setups = [r["setup_s"] for r in children + extra]
    per_pass = [[t for r in p for t, _ in r["ops"]] for p in passes]
    attempted = sum(len(times) for times in per_pass)
    failed = sum(1 for r in children for _, ok in r["ops"] if not ok)
    failures = [f for r in children for f in r["failures"]]
    digests = {r["digest"] for r in children if "digest" in r}
    correct = failed == 0 and not failures and len(digests) <= 1
    # every time is in calibrated seconds (see calib.py); the kernel's median
    # over the run says how much the machine's speed scaled them
    kernel_s = statistics.median(s for r in children + extra for s in r["calib_s"])
    walls = [sum(r["wall_s"] for r in p) for p in passes]
    ops = sorted(t for times in per_pass for t in times)
    n = len(ops)
    # the highest percentile with 10 samples beyond it among the ops of one
    # pass, or among all ops of the run when a pass has fewer than MIN_OPS;
    # read off all ops of the run
    m = len(per_pass[0]) if len(per_pass[0]) >= MIN_OPS else n
    tail_pct = 100.0 * (m - 10) / m
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1000 * statistics.median(ops),
        "op_tail_ms": 1000 * ops[math.ceil(tail_pct / 100 * n) - 1],
        "peak_rss_mb": max(r["maxrss_kb"] for r in children) / 1024,
    }
    info = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "python": children[0]["python"], "numpy": children[0]["numpy"],
        "nproc": os.cpu_count(), "passes": len(passes), "children": len(children),
        "wall_mean_s": statistics.fmean(walls),
        "setups": len(setups), "ops": n, "kernel_ms": 1000 * kernel_s,
        "raw_wall_s": statistics.median(sum(r["raw_wall_s"] for r in p) for p in passes),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "op_tail_pct": tail_pct, "failures": failures[:20],
    }
    out = {"info": info, "e2e": e2e, "correct": correct, "attempted": attempted,
           "failed": failed}
    if trace:
        out["layers"] = layer_metrics(children, len(passes), statistics.fmean(walls))
    return out


def layer_metrics(children: list[dict], n_passes: int, wall_mean_s: float) -> dict:
    """Per-layer metrics of the traced run, as means per pass; times in
    calibrated seconds, scaled by each child's median kernel sample."""
    total: dict[str, float] = {}
    for r in children:
        summary = dict(r["trace"])
        for key, value in summary.pop("counts").items():
            total[key] = total.get(key, 0) + value
        scale = NOMINAL_S / statistics.median(r["calib_s"])
        for key, value in summary.items():
            total[key] = total.get(key, 0) + (value if key == "spans" else scale * value)
    flat = {}
    for name, _ in PER_LAYER:
        if name.endswith(".s"):
            key = name[:-2] + ".self_s"
        else:
            key = name.removeprefix("trace.")
        flat[name] = total.get(key, 0) / n_passes
    flat["trace.wall_s"] = wall_mean_s
    return flat


def contract_line(res: dict) -> dict:
    units = dict(PER_LAYER) if "layers" in res else dict(END_TO_END)
    values = res["layers"] if "layers" in res else res["e2e"]
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}


def print_run(res: dict) -> None:
    info = res["info"]
    print(" ".join(f"{k}={info[k]}" for k in ("workload", "seed", "trace", "python", "numpy",
                                              "nproc", "passes", "children", "setups")))
    e = res["e2e"]
    print(f"  calibration  kernel median {info['kernel_ms']:.3f} ms (nominal "
          f"{1000 * NOMINAL_S:.3f} ms); measured wall_s {info['raw_wall_s']:.4f} s")
    print(f"  setup_s      {e['setup_s']:.4f} s   (median of {info['setups']} set-ups)")
    print(f"  wall_s       {e['wall_s']:.4f} s   (median of {info['passes']} passes)")
    print(f"  op_p50_ms    {e['op_p50_ms']:.4f} ms  (n={info['ops']})")
    print(f"  op_tail_ms   {e['op_tail_ms']:.4f} ms  (p{info['op_tail_pct']:.2f}, n={info['ops']})")
    print(f"  peak_rss_mb  {e['peak_rss_mb']:.1f} MB")
    print(f"  failed_frac  {info['failed_frac']:.4f}  ({info['failed']}/{info['attempted']})")
    for f in info["failures"]:
        print(f"  FAILED: {f}", file=sys.stderr)
    if "layers" in res:
        for name, unit in PER_LAYER:
            value = res["layers"][name]
            if value:
                print(f"  {name:34s} {value:.6g} {unit}")


def run_all(seed: int, seconds: float) -> int:
    results = {}
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, False)
        traced = run_workload(workload, seed, seconds, True)
        results[workload] = {"untraced": plain, "traced": traced}
        print_run(plain)
        print_run(traced)
        layers = traced["layers"]
        in_spans = sum(layers[n] for n, u in PER_LAYER if u == "s" and not n.startswith(
            ("trace.", "permbrute.realize.wasted_s")))
        in_ops = in_spans - layers["trace.outside_ops_s"]
        wall, plain_wall = layers["trace.wall_s"], plain["info"]["wall_mean_s"]
        print(f"  mean pass: layer self times in ops {in_ops:.4f} s + benchmark glue "
              f"{wall - in_ops:.4f} s = traced wall {wall:.4f} s "
              f"(calls outside ops, such as the facts probe: {layers['trace.outside_ops_s']:.4f} s); "
              f"untraced wall {plain_wall:.4f} s; tracing overhead {wall - plain_wall:+.4f} s")
    print(json.dumps({w: {k: contract_line(v) for k, v in r.items()}
                      for w, r in results.items()}))
    return 0 if all(v["correct"] for r in results.values() for v in r.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sylowpi" / "__init__.py").is_file():
        print(f"error: no sylowpi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_run(res)
    print(json.dumps(contract_line(res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
