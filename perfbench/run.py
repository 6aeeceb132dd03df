"""Control-plane benchmark for scrubsim.

    python3 perfbench/run.py --workload sim-dense --seed 1 --seconds 10 --trace 0

runs one workload in this process and thread, checks its outputs and prints
its metrics; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones from
a traced pass. End-to-end times are read at reference speed (see
hostspeed.py), which a shift in the shared host's speed leaves unchanged;
the import part of ``setup_s`` comes from five child processes started one
at a time. Without ``--workload`` every workload runs, one child process at
a time. ``--smoke`` runs each workload at its smallest size. The program is
imported from ``src/`` next to this directory and nowhere else.
Exit codes: 0 all checks passed, 1 an output check failed, 2 the program or
the benchmark could not run.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One thread per workload: keep numpy's BLAS from starting a pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 3
IMPORT_REPS = 5
# Import time follows interpreter speed, not the numpy-heavy reference task
# of hostspeed.py, so import probes have a reference task of their own:
# dict updates, about IMPORT_REF_NOMINAL_S on a quiet host.
IMPORT_REF_NOMINAL_S = 2e-3
MIN_OPS = 100  # so that at least 10 samples lie beyond p90


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_program():
    """Import scrubsim from this checkout's src/, never from elsewhere."""
    package = SRC / "scrubsim"
    if not (package / "__init__.py").is_file():
        fail(f"no scrubsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import scrubsim

    if Path(scrubsim.__file__).resolve().parent != package:
        fail(f"imported scrubsim from {scrubsim.__file__}, not {package}")
    return scrubsim


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "git_commit": git_commit(),
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
    }


def import_reference_s() -> float:
    """Median wall seconds of five runs of the import probes' reference task."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        counts = {}
        for i in range(20000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_probe() -> int:
    """Print the wall seconds this interpreter takes to import numpy and
    scrubsim, and the import reference task's seconds around the import."""
    import_reference_s()  # warm-up
    before = import_reference_s()
    start = time.perf_counter()
    import_program()
    import numpy  # noqa: F401

    import_s = time.perf_counter() - start
    print(import_s, (before + import_reference_s()) / 2)
    return 0


def probe_imports() -> list[tuple[float, float]]:
    """(import seconds, reference seconds) of IMPORT_REPS fresh interpreters,
    one after another: a process imports only once, and one import is too
    short to be steady."""
    probes = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--import-probe"],
                              capture_output=True, text=True, timeout=120)
        out = proc.stdout.split()
        if proc.returncode != 0 or len(out) != 2:
            fail(f"import probe exited with code {proc.returncode}: {proc.stderr[-500:]}")
        probes.append((float(out[0]), float(out[1])))
    return probes


def run_workload(args, spec: dict) -> int:
    scrubsim_pkg = import_program()
    import numpy as np

    from hostspeed import HostSpeed
    from tracer import Tracer
    from workloads import BenchError, make_workload

    import_s = time.perf_counter() - T_START
    record = run_record(args, np.__version__)
    print(f"# record {json.dumps(record, sort_keys=True)}")
    try:
        wl = make_workload(args.workload, args.seed, args.smoke)
        tracer = Tracer() if args.trace else None
        probes = [] if args.trace else probe_imports()
        # Per-layer seconds are as measured; end-to-end times are read at
        # reference speed, from samples taken while they run.
        speed = nullcontext() if args.trace else HostSpeed()
        setup_spans = []
        with speed:
            for rep in range(SETUP_REPS):
                start = time.perf_counter()
                wl.setup(tracer if rep == SETUP_REPS - 1 else None)
                setup_spans.append((start, time.perf_counter()))
            if args.trace:
                untraced = wl.run_pass(None, check=False)
                traced = wl.run_pass(tracer, check=True)
                passes = [traced]
                problems = traced.problems + digest_problems(untraced, [traced])
            else:
                first = wl.run_pass(None, check=True)
                passes = [first]
                # Repeats get --seconds; a workload may repeat a subset of the
                # first pass's ops (oracle-tiny skips its slowest instances).
                while sum(p.wall_s for p in passes[1:]) < args.seconds:
                    passes.append(wl.run_pass(None, check=False, first=first))
                problems = first.problems + digest_problems(first, passes[1:])
        attempted = sum(len(p.op_s) for p in passes)
        failed = sum(p.failed for p in passes)
        if not args.smoke and len(passes[0].op_s) < MIN_OPS:
            raise BenchError(f"a pass has {len(passes[0].op_s)} ops, fewer than {MIN_OPS}")
    except BenchError as exc:
        fail(str(exc))
    except Exception:  # the program crashed: no result to report
        traceback.print_exc()
        fail(f"{args.workload} raised outside any op")

    for note in passes[0].notes:
        print(f"# {args.workload} {note}")
    for problem in problems[:50]:
        print(f"# CHECK FAILED {args.workload}: {problem}")
    if args.trace:
        values = layer_metrics(spec, tracer, traced.wall_s - untraced.wall_s)
        metrics = with_units(spec["per_layer"], values)
        detail = {}
    else:
        # Each op's time is the median, over the passes of the run, of its
        # time at reference speed.
        def op_times(at_speed):
            return [statistics.median(at_speed(p.op_start[op], p.op_start[op] + p.op_s[op])
                                      for p in passes if op in p.op_s)
                    for op in passes[0].op_s]

        op_s = op_times(speed.at_reference_speed)
        wall_op_s = op_times(lambda start, end: end - start)
        samples = sum(len(p.op_s) for p in passes)
        setup_times = [end - start for start, end in setup_spans]
        values = {
            "setup_s": statistics.median(i * IMPORT_REF_NOMINAL_S / r for i, r in probes)
                       + statistics.median(speed.at_reference_speed(*span)
                                           for span in setup_spans),
            "ops_per_s": len(op_s) / sum(op_s),
            "op_ms_p50": float(np.percentile(op_s, 50)) * 1e3,
            "op_ms_p90": float(np.percentile(op_s, 90)) * 1e3,
            "success_rate": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = with_units(spec["end_to_end"], values)
        ref_ms = statistics.median(speed.durations) * 1e3
        detail = {
            "setup_s": f"wall: imports {import_s:.3f} s here, numpy and scrubsim "
                       + ", ".join(f"{i:.3f}" for i, _r in probes)
                       + " s in fresh interpreters; set-ups "
                       + ", ".join(f"{s:.3f}" for s in setup_times) + " s",
            "ops_per_s": f"{len(op_s)} ops, {samples} timings in {len(passes)} passes; "
                         f"wall {len(wall_op_s) / sum(wall_op_s):.4g} ops/s; reference task "
                         f"{ref_ms:.3f} ms (median of {len(speed.durations)} samples)",
            "op_ms_p50": f"n={len(op_s)} ops; wall {np.percentile(wall_op_s, 50) * 1e3:.4g} ms",
            "op_ms_p90": f"n={len(op_s)} ops; wall {np.percentile(wall_op_s, 90) * 1e3:.4g} ms",
            "success_rate": f"fail_rate {failed / attempted:.4g} ({failed} of {attempted} failed)",
        }
    for name, m in metrics.items():
        note = f"  ({detail[name]})" if name in detail else ""
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']}{note}")

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "record": record, "result": result, "setup_spans": setup_spans,
        "timings": None if args.trace else [  # per pass: [op, start, wall s]
            [[repr(op), p.op_start[op], t] for op, t in p.op_s.items()] for p in passes],
        "reference_samples": None if args.trace else [speed.starts, speed.durations],
        "problems": problems, "scrubsim": scrubsim_pkg.__version__,
        "spans": tracer.spans if tracer is not None else None,
    }))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def digest_problems(first, repeats) -> list[str]:
    return [f"pass {i + 1}: op {op} output differs from the first pass"
            for i, p in enumerate(repeats, 1)
            for op, out in p.digest.items() if out != first.digest[op]]


def layer_metrics(spec: dict, tracer, overhead_s: float) -> dict:
    self_s = tracer.self_times()
    c = tracer.counters
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace_overhead_s":
            values[name] = overhead_s
        elif name == "adaptation.loss_calls":
            values[name] = sum(1 for span in tracer.spans if span[0] == "adaptation.loss_s")
        elif name == "resource_manager.handled_ratio":
            values[name] = c["handled_gbps"] / c["offered_gbps"] if c["offered_gbps"] else 0.0
        elif m["unit"] == "s":
            values[name] = self_s.get(name, 0.0)
        else:
            values[name] = c.get(name, 0)
    return values


def with_units(declared: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail(f"no value for declared metric(s) {missing}")
    return {m["name"]: {"value": values[m["name"]] if m["unit"] != "count"
                        else int(values[m["name"]]), "unit": m["unit"]}
            for m in declared}


def run_all(args, spec: dict) -> int:
    """Every workload in its own child process, one after another."""
    names = [w["name"] for w in spec["workloads"]]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            fail(f"workload {name} exited with code {proc.returncode}")
        res = json.loads(lines[-1])
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for metric, m in res["metrics"].items():
            metrics[f"{name}/{metric}"] = m
        if not args.trace:
            metrics[f"{name}/fail_rate"] = {"value": res["failed"] / res["attempted"],
                                            "unit": "ratio"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of BENCHMARK.json's workloads, or sim-surge; "
                        "all of BENCHMARK.json's when left out")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size of each workload, for tests")
    parser.add_argument("--import-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.import_probe:
        return import_probe()
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
