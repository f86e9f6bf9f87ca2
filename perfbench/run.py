"""Seeded benchmark of the bistellar library, end to end and per layer.

    python3 perfbench/run.py --workload calibration --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout (``src/bistellar`` must exist).  The
parent generates the workload's inputs from ``--seed`` and starts one fresh
interpreter (``worker.py``) per item, one at a time, until ``--seconds`` have
passed at the end of a round (a round is every input of the workload once).
Every exact answer is checked; a mismatch or a library error is a failed
operation.  The last stdout line is the result object; the line before it is
the detailed report (host, inputs, every timing with median, p90 and sample
count, failures).  See README.md beside this file for the workloads and the
layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("calibration", "perturbed_cold", "perturbed_warm", "enumerate")
# a run must end within 180 s; leave room for set-up and the report
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "item_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
PER_LAYER = {
    "canonical.okey.calls": "count",
    "canonical.ukey.calls": "count",
    "canonical.unoriented_canon.calls": "count",
    "canonical.self_s": "s",
    "canonical.ucanon_distinct_ratio": "ratio",
    "moves.enumerate_moves.calls": "count",
    "moves.apply_move.calls": "count",
    "moves.self_s": "s",
    "reduction.reduce_to_boundary.calls": "count",
    "reduction.reduce_to_boundary.self_s": "s",
    "reduction.reduce_to_boundary.s": "s",
    "reduction.cert_moves": "count",
    "reduction.applies_per_cert_move": "ratio",
    "reduction.self_s": "s",
    "spheres.is_combinatorial_sphere.calls": "count",
    "spheres.is_combinatorial_sphere.s": "s",
    "spheres.self_s": "s",
    "library.cp2_9.s": "s",
    "library.self_s": "s",
    "gamma2.decompose_cycle.calls": "count",
    "gamma2.decompose_cycle.self_s": "s",
    "gamma2.decompose_cycle.s": "s",
    "gamma2.input_edges": "count",
    "gamma2.pieces": "count",
    "gamma2.commutation_cycle.calls": "count",
    "gamma2.special_cycle_a.calls": "count",
    "gamma2.special_cycle_b.calls": "count",
    "gamma2.special_cycle_c.calls": "count",
    "gamma2.decreasing_moves.calls": "count",
    "gamma2.accept_ratio": "ratio",
    "gamma2.self_s": "s",
    "pontryagin.local_f.calls": "count",
    "pontryagin.local_f.self_s": "s",
    "pontryagin.link_classes": "count",
    "pontryagin.xi_classes": "count",
    "pontryagin.cache_load_s": "s",
    "pontryagin.cache_bytes": "bytes",
    "pontryagin.self_s": "s",
    "simplicial.link.calls": "count",
    "simplicial.self_s": "s",
    "sw.sw_duals.s": "s",
    "sw.self_s": "s",
    "enumeration.spheres_by_expansion.s": "s",
    "enumeration.self_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "trace.item_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}
# per-layer values read from the worker's input facts rather than the spans
INFO_LAYERS = {
    "pontryagin.link_classes": "link_classes",
    "pontryagin.xi_classes": "xi_classes",
    "pontryagin.cache_load_s": "cache_load_s",
    "pontryagin.cache_bytes": "cache_bytes",
}


def find_root() -> str | None:
    """The checkout root: the current directory if it holds the library
    sources, else the parent of this file's directory."""
    for root in (os.getcwd(), os.path.dirname(HERE)):
        if os.path.isfile(os.path.join(root, "src", "bistellar", "__init__.py")):
            return root
    return None


def host_record() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def speed_probe() -> float:
    """Median seconds of a fixed pure-Python loop.  It rises when the host
    is slow (other tenants, frequency changes), which the load average of a
    virtual machine does not show; the report records it at the start and
    the end of a run."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def summary(values: list[float]) -> dict:
    """Median, 90th percentile and sample count of one timing."""
    p90 = statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]
    return {"median": statistics.median(values), "p90": p90, "max": max(values), "n": len(values)}


class Runner:
    """Starts workers for one workload run and keeps their results."""

    def __init__(self, root: str, workload: str, seed: int, expect: dict, start: float):
        self.root, self.workload, self.seed, self.expect = root, workload, seed, expect
        self.deadline = start + DEADLINE_S
        self.spans_dir = os.path.join(root, ".perfbench", "spans")

    def item(self, inp: dict, index: int, trace: bool = False, **extra) -> dict:
        task = {"root": self.root, "workload": self.workload, "input": inp, "expect": self.expect,
                "trace": trace, **extra}
        if trace:
            os.makedirs(self.spans_dir, exist_ok=True)
            task["spans_path"] = os.path.join(self.spans_dir, f"{self.workload}-seed{self.seed}-item{index}.json")
        t_spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, WORKER], input=json.dumps(task), capture_output=True, text=True,
            timeout=max(1.0, self.deadline - t_spawn), check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        res = json.loads(proc.stdout.splitlines()[-1])
        res["setup_s"] = res["setup_end"] - t_spawn
        res["input_index"] = index
        res["traced"] = trace
        return res


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 inputs: list[dict] | None = None, expect: dict | None = None) -> dict:
    """One benchmark run; returns ``{"report": ..., "result": ...}``.

    ``inputs`` and ``expect`` replace the generated inputs and the expected
    answers (the self-tests use tiny inputs and wrong answers).
    """
    from inputs import expected, generate

    t_start = time.monotonic()
    root = find_root()
    host = host_record()
    host["probe_s"] = [speed_probe()]
    inputs = generate(workload, seed) if inputs is None else inputs
    expect = expected(workload) if expect is None else expect
    runner = Runner(root, workload, seed, expect, t_start)
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(root, ".perfbench"))
    samples: list[dict] = []
    prep: list[dict] = []
    try:
        extra = [{} for _ in inputs]
        if workload == "perturbed_warm":
            # an untimed cold run per input writes the cache the warm items load
            for i, inp in enumerate(inputs):
                extra[i] = {"cache_path": os.path.join(tmp, f"xi-{i}.json")}
                prep.append(runner.item(inp, i, save_cache=True, **extra[i]))
                failed = [op for op in prep[-1]["ops"] if _failed(op)]
                if failed:
                    raise RuntimeError(f"warm-cache preparation failed: {failed}")
        t_measure = time.monotonic()
        traced_round = False
        while True:
            for i, inp in enumerate(inputs):
                samples.append(runner.item(inp, i, trace=traced_round, **extra[i]))
            done = time.monotonic() - t_measure >= seconds
            if trace:
                traced_round = not traced_round
                # stop after a traced round once time is up
                if done and not traced_round:
                    break
            elif done:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    host["probe_s"].append(speed_probe())
    return build_report(workload, seed, seconds, trace, host, inputs, prep, samples, time.monotonic() - t_start)


def _failed(op: dict) -> bool:
    return "error" in op or "mismatch" in op


def build_report(workload, seed, seconds, trace, host, inputs, prep, samples, wall_s) -> dict:
    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    ops = [op for s in samples for op in s["ops"]]
    failures = [op for op in ops if _failed(op)]
    correct = not any("mismatch" in op for op in ops)

    def item_s(s):
        return sum(op["s"] for op in s["ops"])

    plain_ops = [op for s in plain for op in s["ops"]]
    e2e = {
        "setup_s": statistics.median(s["setup_s"] for s in plain),
        "item_s": statistics.median(item_s(s) for s in plain),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in plain),
        "ok_ratio": sum(not _failed(op) for op in plain_ops) / len(plain_ops),
    }
    timings = {"setup_s": summary([s["setup_s"] for s in plain]), "item_s": summary([item_s(s) for s in plain])}
    for name in sorted({op["op"] for op in plain_ops}):
        timings[f"{name}_s"] = summary([op["s"] for op in plain_ops if op["op"] == name])
    errors: dict[str, int] = {}
    for op in failures:
        text = f"{op['op']}: {op.get('mismatch') or op.get('error')}"
        errors[text] = errors.get(text, 0) + 1
    facts = [next(s["info"] for s in prep + samples if s["input_index"] == i) for i in range(len(inputs))]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "host": host,
        "wall_s": wall_s, "inputs": facts,
        "timings": timings, "failures": errors, "metrics": e2e,
    }
    if trace:
        layers = per_layer(traced, plain, item_s)
        report["layers"] = layers
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": correct, "attempted": len(ops), "failed": len(failures), "metrics": metrics}
    return {"report": report, "result": result}


def per_layer(traced: list[dict], plain: list[dict], item_s) -> dict:
    """Mean per item over the traced items, plus the tracing overhead (mean
    traced minus mean untraced item time, set-up included)."""
    out = {}
    for name in PER_LAYER:
        if name in INFO_LAYERS:
            out[name] = statistics.fmean(s["info"].get(INFO_LAYERS[name], 0) for s in traced)
        elif name in traced[0]["layers"]:
            out[name] = statistics.fmean(s["layers"][name] for s in traced)
    traced_s = statistics.fmean(s["setup_s"] + item_s(s) for s in traced)
    plain_s = statistics.fmean(s["setup_s"] + item_s(s) for s in plain)
    out["trace.item_s"] = traced_s
    out["trace.overhead_s"] = traced_s - plain_s
    out["trace.overhead_ratio"] = (traced_s - plain_s) / plain_s
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = find_root()
    if root is None:
        print("perfbench: run from a checkout that holds src/bistellar", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["report"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
