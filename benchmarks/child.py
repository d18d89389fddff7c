"""One measured pass, in a fresh interpreter started by run.py.

    python3 benchmarks/child.py SPEC_JSON T0

``T0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` includes interpreter start-up. The spec names the
mode (``setup``, ``cases`` or ``sweep``), the config files to parse, the
cases, whether to trace, and where to write the result JSON.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident memory of this process since its exec.

    ``VmHWM`` belongs to this process's own address space. ``ru_maxrss`` is
    not used: on Linux exec carries the high-water mark of the forking
    parent into it, so it would report the parent's peak.
    """
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_cases(spec: dict, cli) -> dict:
    import probe

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    cases = []
    sampler = probe.Sampler(spec["probe"])
    for case in spec["cases"]:
        if tracer is not None:
            tracer.case = case["id"]
        error = None
        sampler.start()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            code = cli.main(case["argv"])
        except Exception as exc:  # a raising case is counted as failed, not fatal
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        sampler.stop()
        wall -= sampler.cost_wall_s
        cpu -= sampler.cost_cpu_s
        slow = sampler.slowdown()
        cases.append({"id": case["id"], "wall_s": wall, "cpu_s": cpu, "slowdown": slow,
                      "probes": len(sampler.times), "code": code, "error": error})
    result = {
        "cases": cases,
        # solve_s and cpu_s at the reference host speed; the wall_ sums as measured.
        "solve_s": sum(c["wall_s"] / c["slowdown"] for c in cases),
        "cpu_s": sum(c["cpu_s"] / c["slowdown"] for c in cases),
        "wall_solve_s": sum(c["wall_s"] for c in cases),
        "wall_cpu_s": sum(c["cpu_s"] for c in cases),
    }
    if tracer is not None:
        from spans import layer_metrics

        result["layers"] = layer_metrics(tracer.spans, len(cases))
        if spec.get("spans_out"):
            tracer.dump(spec["spans_out"])
    return result


# Size sweep: chains at 6 um spacing, timed on a fixed 0.02 us ramp.
SWEEP_SIZES = (6, 10, 14, 18)
SWEEP_STEP = 1e-3
SWEEP_DURATION = 0.02
SWEEP_MIN_S = 0.3  # repeat each timing until this much time is covered


def _median_time(fn, min_total: float, min_reps: int = 3) -> float:
    times = []
    while len(times) < min_reps or sum(times) < min_total:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def run_sweep() -> dict:
    from rydnash import dynamics
    from rydnash.dynamics import RydbergSystem
    from rydnash.geometry import build_unit_disk_graph
    from rydnash.schedule import default_schedule

    schedule = default_schedule(duration=SWEEP_DURATION)
    times = schedule.breakpoint_times
    stages = 3 * sum(max(1, math.ceil((b - a) / SWEEP_STEP)) for a, b in zip(times, times[1:]))
    layers = {}
    for n in SWEEP_SIZES:
        graph = build_unit_disk_graph([(6.0 * i, 0.0) for i in range(n)], 6.0)
        layers[f"dynamics.build_s.n{n}"] = _median_time(lambda: RydbergSystem(graph, 1e6).pair_energy, SWEEP_MIN_S)
        system = RydbergSystem(graph, 1e6)
        system.pair_energy
        t = _median_time(lambda: dynamics.propagate(system, schedule, SWEEP_STEP), SWEEP_MIN_S, min_reps=1)
        layers[f"dynamics.stage_us.n{n}"] = t / stages * 1e6
    # Two atoms at the 4 um hardware floor with the default C6: V is
    # 1323 rad/us, so step halving has to go deep. Traced last, so the
    # wrappers do not touch the timings above.
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    pair = RydbergSystem(build_unit_disk_graph([(0.0, 0.0), (4.0, 0.0)], 5.0))
    dynamics.evolve(pair, default_schedule())
    (evolve,) = [i for i, s in enumerate(tracer.spans) if s.name == "dynamics.evolve"]
    passes = sum(s.name == "dynamics.propagate" and s.parent == evolve for s in tracer.spans)
    layers["dynamics.passes.stiff-pair"] = float(passes)
    return {"layers": layers}


def main(spec_path: str, t0: float) -> None:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    import rydnash.cli as cli
    from rydnash.fileio import load_graph, load_schedule

    for path in spec["graph_files"]:
        load_graph(path)
    for path in spec["schedule_files"]:
        load_schedule(path)
    setup = time.monotonic() - t0
    result = {"wall_setup_s": setup}
    if spec["mode"] == "setup":
        # Only here: probing before the cases would change the heap they
        # start from, and with it peak_rss_mb on some classical-sweep seeds.
        import probe

        slow = probe.slowdown(probe.SETUP_KIND, probe.probe_for(probe.SETUP_KIND, probe.SETUP_WINDOW_S))
        result.update(setup_s=setup / slow, setup_slowdown=slow)
    elif spec["mode"] == "cases":
        result.update(run_cases(spec, cli))
    elif spec["mode"] == "sweep":
        result.update(run_sweep())
    result["peak_rss_mb"] = _peak_rss_mb()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
