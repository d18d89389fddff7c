"""The rydnash benchmark: times what a user waits for, ``rydnash all`` and
``rydnash classical``, on one seeded workload.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Load is a closed loop: one client runs the
workload's cases one at a time, each pass in a fresh child interpreter with
``src`` on its path and BLAS/OpenMP pinned to one thread, until ``--seconds``
have passed. Times are scaled to one reference host speed by probes run
inside the child while it works (see probe.py). Outputs are checked outside
the timed interval. The last line of standard output is one JSON object:
with ``--trace 0`` it carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.
See benchmarks/README.md.
"""

from __future__ import annotations

import os

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5  # set-up-only children per run, on top of one before each pass
MIN_PASSES = 3  # untraced run; a traced run needs 2 traced and 2 untraced
MAX_LOOP_S = 120.0  # no new pass after this, whatever --seconds says
CHILD_TIMEOUT_S = 150.0
# The integrator contract: every evolve ends with a step-halving residual
# below 1e-6 and a final norm within 1e-9 of 1. Checked on traced passes.
GUARDS = (("dynamics.residual", 1e-6), ("dynamics.norm_drift", 1e-9))

class ChildFailed(Exception):
    pass


class Runner:
    """Starts the child interpreters of one run."""

    def __init__(self, workdir: Path, inputs: workloads.Inputs):
        self.workdir = workdir
        self.inputs = inputs
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def spawn(self, mode: str, trace: bool = False, spans_out: str | None = None) -> dict:
        spec_path = self.workdir / "spec.json"
        result_path = self.workdir / "result.json"
        result_path.unlink(missing_ok=True)
        spec = {
            "mode": mode,
            "trace": trace,
            "spans_out": spans_out,
            "graph_files": list(self.inputs.graph_files),
            "schedule_files": list(self.inputs.schedule_files),
            "cases": [{"id": c.id, "argv": list(c.argv)} for c in self.inputs.cases],
            "probe": self.inputs.probe,
            "result": str(result_path),
        }
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path), repr(t0)],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0 or not result_path.exists():
            raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(result_path.read_text(encoding="utf-8"))


class Checker:
    """Checks each case's outputs once per distinct set of bytes, and that
    every pass of a case writes the same bytes."""

    def __init__(self, cases):
        self.cases = {c.id: c for c in cases}
        self.families = {}
        self.aggregate_ref = {}
        for c in cases:
            fam = check.Families(c.positions, c.radius)
            self.families[c.id] = fam
            if c.quantum is not None:
                p = abs(check.reference_state(c.positions, c.quantum.c6, c.quantum.ramp)) ** 2
                self.aggregate_ref[c.id] = float(sum(p[int(b, 2)] for b in fam.maximum))
        self.hashes = {}
        self._verdicts = {}

    def problems(self, case_id: str, code, error) -> list[str]:
        case = self.cases[case_id]
        if error is not None:
            return [f"raised {error}"]
        if code != 0:
            return [f"exit code {code}"]
        hashes = check.file_hashes(case.out)
        key = (case_id, tuple(sorted(hashes.items())))
        if key not in self._verdicts:
            self._verdicts[key] = check.check_case(case, self.families[case_id], self.aggregate_ref.get(case_id))
        first = self.hashes.setdefault(case_id, hashes)
        drift = [] if hashes == first else ["report bytes differ from the first pass of this case"]
        return self._verdicts[key] + drift


def _median(values):
    return statistics.median(values) if values else None


def measure(args, runner: Runner, checker: Checker, out_dir: Path) -> dict:
    inputs = runner.inputs
    runner.spawn("setup")  # warm-up: byte-compile and fill the file cache, not measured
    start = time.monotonic()
    setup = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
    passes, attempted, failed, problems, crashes, guard_failures = [], 0, 0, [], 0, []
    spans_out = str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz") if args.trace else None
    last_pass_s = 0.0
    while True:
        traced = sum(p["traced"] for p in passes)
        enough = (min(traced, len(passes) - traced) >= 2) if args.trace else len(passes) >= MIN_PASSES
        # Start a pass only if it would end less than half a pass past the deadline.
        ends = time.monotonic() - start + 0.5 * last_pass_s
        if enough and ends >= min(args.seconds, MAX_LOOP_S):
            break
        pass_start = time.monotonic()
        trace_this = bool(args.trace) and len(passes) % 2 == 1
        for case in inputs.cases:
            shutil.rmtree(case.out, ignore_errors=True)
        try:
            setup.append(runner.spawn("setup"))
            res = runner.spawn("cases", trace=trace_this, spans_out=spans_out if trace_this and traced == 0 else None)
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            attempted += len(inputs.cases)
            failed += len(inputs.cases)
            problems.append(f"pass {len(passes)}: {exc}")
            crashes += 1
            if crashes >= 3:
                break
            continue
        res["traced"] = trace_this
        for name, limit in GUARDS if trace_this else ():
            if res["layers"][name] >= limit:
                guard_failures.append(f"pass {len(passes)}: {name} = {res['layers'][name]:.3g}, limit {limit:g}")
        for c in res["cases"]:
            found = checker.problems(c["id"], c["code"], c["error"])
            attempted += 1
            if found:
                failed += 1
                problems.append(f"pass {len(passes)} case {c['id']}: {'; '.join(found)}")
        passes.append(res)
        last_pass_s = time.monotonic() - pass_start

    untraced = [p for p in passes if not p["traced"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "guard_failures": guard_failures,
        "setup_samples_s": [s["setup_s"] for s in setup],
        "wall_setup_samples_s": [s["wall_setup_s"] for s in setup],
        "passes": passes,
        "sha256": checker.hashes,
    }
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layers = {k: _median([p["layers"][k] for p in traced]) for k in (traced[0]["layers"] if traced else ())}
        layers.update(runner.spawn("sweep")["layers"])
        # Passes alternate untraced/traced; pairing neighbours cancels slow drift.
        pairs = zip(passes[0::2], passes[1::2])
        layers["trace.overhead_s"] = _median([t["solve_s"] - u["solve_s"] for u, t in pairs if t["traced"] and not u["traced"]])
        record["metrics"] = layers
    else:
        record["metrics"] = {
            "setup_s": _median([s["setup_s"] for s in setup]),
            "solve_s": _median([p["solve_s"] for p in untraced]),
            "cpu_s": _median([p["cpu_s"] for p in untraced]),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in untraced]),
        }
        record["wall"] = {
            "setup_s": _median([s["wall_setup_s"] for s in setup]),
            "solve_s": _median([p["wall_solve_s"] for p in untraced]),
            "cpu_s": _median([p["wall_cpu_s"] for p in untraced]),
            "slowdown": _median([c["slowdown"] for p in untraced for c in p["cases"]]),
        }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rydnash" / "__init__.py").is_file():
        print(f"error: {SRC / 'rydnash'} not found; run from a rydnash checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        inputs = workloads.build(args.workload, args.seed, str(workdir))
        runner = Runner(workdir, inputs)
        checker = Checker(inputs.cases)
        record = measure(args, runner, checker, out_dir)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if work_root.exists() and not any(work_root.iterdir()):
            work_root.rmdir()

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    attempted, failed = record["attempted"], record["failed"]
    print(f"workload {args.workload} seed {args.seed}: {len(record['passes'])} passes, "
          f"{attempted} cases attempted, {failed} failed")
    for problem in record["problems"] + record["guard_failures"]:
        print(f"  FAILED {problem}")
    for case_id, hashes in sorted(record["sha256"].items()):
        for file_name, digest in sorted(hashes.items()):
            print(f"  sha256 {case_id}/{file_name} {digest}")
    print(f"  fail_frac = {failed / max(attempted, 1):.6g} ratio")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    measured = record["metrics"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared if measured.get(m["name"]) is not None}
    undeclared = sorted(set(measured) - {m["name"] for m in declared})
    missing = sorted({m["name"] for m in declared} - set(metrics))
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    for key, value in record.get("wall", {}).items():
        print(f"  as measured, before scaling to the reference host speed: {key} = {value:.6g}")
    if undeclared or missing:
        print(f"  FAILED metrics not in BENCHMARK.json: {undeclared}; declared but not measured: {missing}")
    print(f"  record: {out_dir / name}")
    correct = failed == 0 and attempted > 0 and not record["guard_failures"] and not undeclared and not missing
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
