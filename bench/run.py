"""stepscan benchmark runner.

Runs one workload (or, without --workload, all four in turn) in fresh
worker processes, one at a time, and prints every metric by name with its
unit. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: set-up time and
seconds per pass, both rescaled to reference speed (see hostspeed.py), and
the worker's peak resident memory; the per-job median and
tail and the failed fraction are printed above it. With --trace 1 they are
the per-layer ones from a traced run: self time per layer, computed work
counters and tracemalloc peaks.

Usage, from the repository root:

    python3 bench/run.py --workload dp-long --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                       # all workloads, both modes
    python3 bench/run.py --record LABEL        # ... and append to trajectory.json
    python3 bench/run.py --write-reference     # re-pin reference.json digests
"""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import json
import os
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
WORKDIR = os.path.join(ROOT, ".bench_work")
TRAJECTORY = os.path.join(BENCH, "trajectory.json")
REFERENCE = os.path.join(BENCH, "reference.json")

sys.path.insert(0, BENCH)
from metrics import (  # noqa: E402
    DEFAULT_SEED,
    END_TO_END_UNITS,
    EXPECTED_PEAK_BYTES,
    JOB_UNITS,
    LAYER_UNITS,
    MOVES,
    REFERENCE_KERNEL_S,
    SETUP_SAMPLES,
    WHY,
    WORKLOADS,
    end_to_end,
)

DEFAULT_SECONDS = 20
WORKER_TIMEOUT_S = 150
REQUIRED = ("src/stepscan/__init__.py", "fixtures/nile.csv", "fixtures/oilprice_raw.csv",
            "fixtures/gdpdef.csv")


class BenchError(Exception):
    """The benchmark cannot produce a result; exit non-zero without one."""


def meminfo() -> dict[str, int]:
    """MemTotal and MemAvailable in bytes, empty where /proc/meminfo is absent."""
    out = {}
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                key, value = line.split(":", 1)
                if key in ("MemTotal", "MemAvailable"):
                    out[key] = int(value.split()[0]) * 1024
    except OSError:
        pass
    return out


def check_checkout() -> None:
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise BenchError(f"not a stepscan checkout: missing {', '.join(missing)} under {ROOT}")


def check_memory(workload: str) -> None:
    need = EXPECTED_PEAK_BYTES[workload]
    available = meminfo().get("MemAvailable")
    if available is not None and need > available:
        raise BenchError(
            f"{workload} needs about {need} bytes ({need >> 20} MiB) of memory but only "
            f"{available} bytes ({available >> 20} MiB) are available; not starting it")


def source_digest() -> str:
    """sha256 over src/stepscan/*.py, which identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "stepscan")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, mode: str, seconds: float, workdir: str,
               spans: str | None = None) -> dict:
    """Start one fresh worker, wait for it, and return its result object."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(),
                              cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} worker exceeded {WORKER_TIMEOUT_S} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited {done.returncode}:\n"
                         f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def setup_time(workload: str, seed: int, workdir: str) -> tuple[float, float]:
    """(set-up seconds, reference-kernel seconds right after) of a fresh worker."""
    out = run_worker(workload, seed, "setup", 0, workdir)
    return out["setup_s"], out["setup_kernel_s"]


def environment(workload: str, seed: int, seconds: float, info: dict) -> dict:
    mem = meminfo()
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "python": info["python"], "numpy": info["numpy"], "stepscan": info["stepscan"],
        "nproc": os.cpu_count(), "mem_total_bytes": mem.get("MemTotal"),
        "date": dt.datetime.now(dt.timezone.utc).isoformat(timespec="seconds"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload: a result with metrics and detail."""
    check_memory(workload)
    os.makedirs(WORKDIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload}-", dir=WORKDIR) as workdir:
        if trace:
            spans = os.path.join(WORKDIR, f"spans-{workload}.json")
            out = run_worker(workload, seed, "traced", seconds, workdir, spans)
            metrics = out["per_layer"]
            detail = {"spans_file": os.path.relpath(spans, ROOT)}
        else:
            before = SETUP_SAMPLES // 2
            setups = [setup_time(workload, seed, workdir) for _ in range(before)]
            out = run_worker(workload, seed, "timed", seconds, workdir)
            setups.append((out["setup_s"], out["setup_kernel_s"]))
            setups += [setup_time(workload, seed, workdir)
                       for _ in range(SETUP_SAMPLES - before - 1)]
            metrics, detail = end_to_end(out, setups)
    attempted = len(out["jobs"])
    failed = len(out["failures"])
    detail.update(failed_frac=failed / attempted if attempted else 1.0,
                  failures=out["failures"][:20],
                  env=environment(workload, seed, seconds, out))
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "detail": detail}


def units(trace: bool) -> dict[str, str]:
    return LAYER_UNITS if trace else END_TO_END_UNITS


def print_result(workload: str, result: dict, trace: bool) -> None:
    detail = result["detail"]
    print(f"== {workload} ({'traced' if trace else 'timed'}), seed {detail['env']['seed']}")
    table = units(trace)
    rows = [(name, value, table[name]) for name, value in result["metrics"].items()]
    if not trace:
        rows += [(name, detail[name], unit + "*") for name, unit in JOB_UNITS.items()]
    rows.append(("failed_frac", detail["failed_frac"], "ratio*"))
    notes = {
        "setup_s": (f"median of {len(detail.get('setup_samples', ()))} fresh processes at"
                    f" reference speed; as measured {detail.get('setup_raw_s', 0):.6g} s"),
        "wall_s": (f"median of {detail.get('passes')} passes at reference speed; as measured"
                   f" {detail.get('wall_raw_s', 0):.6g} s, reference kernel"
                   f" {detail.get('kernel_s', 0):.6g} s (nominal {REFERENCE_KERNEL_S:g} s)"),
        "job_s_p50": f"median of {detail.get('job_samples')} jobs",
        "job_s_tail": (f"p{detail.get('tail_percentile', 0):g} of {detail.get('job_samples')}"
                       f" jobs, {detail.get('tail_beyond')} beyond"),
        "failed_frac": f"{result['failed']} of {result['attempted']} jobs",
    }
    for name, value, unit in rows:
        note = f"-> {MOVES[name]}" if trace and name in MOVES else notes.get(name, "")
        print(f"  {name:<24} {value:>14.6g} {unit:<7} {note}")
    print("  (* printed, not a gated metric)")
    for job, reason in detail["failures"]:
        print(f"  FAILED {job}: {reason}")
    print("env " + json.dumps(detail["env"]))


def contract_line(result: dict, trace: bool) -> str:
    table = units(trace)
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": table[k]} for k, v in result["metrics"].items()},
    })


def write_reference() -> None:
    pinned = {}
    os.makedirs(WORKDIR, exist_ok=True)
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(prefix=f"{workload}-", dir=WORKDIR) as workdir:
            out = run_worker(workload, DEFAULT_SEED, "digests", 0, workdir)
        if out["failures"]:
            raise BenchError(f"{workload}: refusing to pin failing outputs {out['failures']}")
        pinned[workload] = out["digests"]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "source_sha256": source_digest(),
                   "workloads": pinned}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.relpath(REFERENCE, ROOT)}")


def run_all(seed: int, seconds: float, label: str | None) -> None:
    summary = {}
    for workload in WORKLOADS:
        timed = measure(workload, seed, seconds, trace=False)
        print_result(workload, timed, trace=False)
        traced = measure(workload, seed, seconds, trace=True)
        print_result(workload, traced, trace=True)
        summary[workload] = {
            "correct": timed["correct"] and traced["correct"],
            "end_to_end": timed["metrics"],
            "setup_raw_s": timed["detail"]["setup_raw_s"],
            "wall_raw_s": timed["detail"]["wall_raw_s"],
            "kernel_s": timed["detail"]["kernel_s"],
            "job_s_p50": timed["detail"]["job_s_p50"],
            "job_s_tail": timed["detail"]["job_s_tail"],
            "failed_frac": timed["detail"]["failed_frac"],
            "job_s_tail_percentile": timed["detail"]["tail_percentile"],
            "job_samples": timed["detail"]["job_samples"],
            "passes": timed["detail"]["passes"],
            "per_layer": traced["metrics"],
            "env": timed["detail"]["env"],
        }
    if label:
        entries = []
        if os.path.exists(TRAJECTORY):
            with open(TRAJECTORY, encoding="utf-8") as fh:
                entries = json.load(fh)
        entries.append({"label": label, "seed": seed, "seconds": seconds,
                        "why": WHY, "moves": MOVES, "workloads": summary})
        with open(TRAJECTORY, "w", encoding="utf-8") as fh:
            json.dump(entries, fh, indent=2)
            fh.write("\n")
    print(json.dumps({w: {"correct": s["correct"], "end_to_end": s["end_to_end"]}
                      for w, s in summary.items()}))


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seeds are non-negative integers, got {seed}")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stepscan benchmark")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload; default: all, timed then traced")
    parser.add_argument("--seed", type=seed_arg, default=DEFAULT_SEED,
                        help=f"workload seed; {DEFAULT_SEED} also checks reference digests")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per run (after set-up and one warm-up pass)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--record", metavar="LABEL",
                        help="with all workloads: append the results to trajectory.json")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"pin seed-{DEFAULT_SEED} output digests into reference.json")
    args = parser.parse_args(argv)
    try:
        check_checkout()
        if args.write_reference:
            write_reference()
        elif args.workload is None:
            run_all(args.seed, args.seconds, args.record)
        else:
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            print_result(args.workload, result, bool(args.trace))
            print(contract_line(result, bool(args.trace)))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
