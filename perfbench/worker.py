"""One benchmark item in a fresh interpreter.

Reads a task (JSON) on stdin, runs the workload's operations on the one
input it carries and prints one JSON object: the monotonic time at which
set-up ended, each operation's time and outcome, facts about the input, the
peak RSS and, when traced, the per-layer roll-up.  ``run.py`` starts one
per item as ``python3 worker.py`` with the task on stdin.

A fresh interpreter is what makes "cold" cold: the library keeps
module-level caches (canonical forms, representative orientations) that
survive between calls in one process.
"""

import json
import os
import resource
import sys
import time


def _check(op: dict, got, want) -> None:
    if got != want:
        op["mismatch"] = f"expected {want}, got {got}"


def _timed(ops: list, name: str, fn, check=None):
    """Run fn, record its time and outcome; an exception is a failed op, so
    one broken operation does not end the run."""
    op = {"op": name}
    ops.append(op)
    t = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:
        op["s"] = time.perf_counter() - t
        op["error"] = f"{type(exc).__name__}: {exc}"
        return None
    op["s"] = time.perf_counter() - t
    if check is not None:
        check(op, out)
    return out


def _link_classes(K) -> int:
    """Vertex-link classes of a 4-manifold, a class and its mirror once."""
    from bistellar import okey

    keys = {okey(K.link((v,))) for v in K.vertices}
    return len({min(k.encode(), k.mirror().encode()) for k in keys})


def run(task: dict) -> dict:
    sys.path.insert(0, os.path.join(task["root"], "src"))
    tracer = None
    if task.get("trace"):
        from spans import Tracer

        tracer = Tracer()
    import bistellar
    from bistellar import XiCache, library

    from inputs import build

    if tracer is not None:
        tracer.install()
        tracer.active = True
    t_traced = time.perf_counter()
    workload, inp, want = task["workload"], task["input"], task["expect"]
    result: dict = {"ops": [], "info": {}}
    info = result["info"]

    if workload == "calibration":
        library.cp2_9()  # the user's first step: load and validate the bundled CP^2
    if workload != "enumerate":
        K = build(inp)
    cache = None
    if workload == "perturbed_warm":
        # the preparation item starts without the file and writes it
        t = time.perf_counter()
        cache = XiCache(task["cache_path"])
        if not task.get("save_cache"):
            info["cache_load_s"] = time.perf_counter() - t
            info["cache_bytes"] = os.path.getsize(task["cache_path"])
    result["setup_end"] = time.monotonic()

    ops = result["ops"]
    if workload == "enumerate":
        n = inp["max_vertices"]

        def check_counts(op, out):
            _check(op, {str(k): len(v) for k, v in out.items()}, want["sphere_counts"])

        _timed(ops, "enumerate", lambda: bistellar.spheres_by_expansion(n), check_counts)
    else:
        if cache is None:
            cache = XiCache()

        def check_local(op, chain):
            _check(op, str(chain.total()), want["p1_total"])
            if "vertex_coeff" in want and "mismatch" not in op:
                coeffs = {str(chain.terms.get((v,), 0)) for v in K.vertices}
                _check(op, sorted(coeffs), [want["vertex_coeff"]])

        local = _timed(ops, "p1_local", lambda: bistellar.p1_dual_local(K, cache=cache), check_local)
        if workload in ("calibration", "perturbed_cold"):
            def check_direct(op, chain):
                _check(op, str(chain.total()), want["p1_total"])
                if local is not None and "mismatch" not in op:
                    _check(op, chain.total(), local.total())

            _timed(ops, "p1_direct", lambda: bistellar.p1_dual_direct(K, cache=XiCache()), check_direct)
        if workload == "calibration":
            def check_sw(op, chains):
                _check(op, [c.is_cycle() for c in chains], [True] * (K.dim + 1))

            _timed(ops, "sw", lambda: bistellar.sw_duals(K), check_sw)
    t_end = time.perf_counter()

    if tracer is not None:
        tracer.active = False
        result["layers"] = tracer.rollup(t_end - t_traced)
        tracer.dump(task["spans_path"])
    if workload != "enumerate":
        info["vertices"] = len(K.vertices)
        info["facets"] = len(K.facets)
        info["link_classes"] = _link_classes(K)
        info["xi_classes"] = len(getattr(cache, "chains", ()))
    if task.get("save_cache"):
        cache.save()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.load(sys.stdin))))
