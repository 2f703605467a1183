"""One workload in one fresh process; run.py starts it and reads its last line.

Modes:
  setup    import stepscan and generate the inputs, report the seconds taken
           and the reference kernel's seconds right after
  timed    the same set-up figures, then untraced passes for --seconds after
           one discarded warm-up pass, with the reference kernel timed
           between jobs
  traced   alternating untraced and traced passes for --seconds, then one
           memory pass under tracemalloc; reports the per-layer metrics
  digests  one pass; reports each job's output digest (for reference.json)

The last line of stdout is one JSON object. Job stderr (the CLI's timing
line, warnings) goes to an in-memory sink and is kept only for failures.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH, "reference.json")
# Reference-kernel runs after set-up; their median gives the host's speed then.
SETUP_KERNEL_RUNS = 3
# Job seconds between two reference-kernel runs in a timed run, at least.
KERNEL_EVERY_S = 0.2


def import_stepscan():
    """Import stepscan from this checkout's src/, never from elsewhere."""
    sys.path[:0] = [SRC, BENCH]
    import stepscan
    origin = os.path.realpath(stepscan.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"stepscan imported from {origin}, not from {SRC}")
    return stepscan


def load_reference(workload: str) -> dict[str, str]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload, {})


def run_pass(jobs, outcome, reference=None, tracer=None, after_job=None) -> float:
    """Run every job once; returns the summed job seconds (checks excluded).

    outcome collects per-job times, attempts and failures. A job fails when
    it raises, when its check finds a wrong output, or when reference is
    given and its output digest differs from the recorded one. after_job,
    if given, is called with each job's seconds once the job is checked.
    """
    sink = io.StringIO()
    saved, sys.stderr = sys.stderr, sink
    total = 0.0
    try:
        for job in jobs:
            if tracer is not None:
                tracer.job = job.id
            start = time.perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # a raising job is a counted failure, not a crash
                elapsed = time.perf_counter() - start
                reason, digest = f"raised {type(exc).__name__}: {exc}", ""
            else:
                elapsed = time.perf_counter() - start
                try:
                    reason, digest = job.check(out)
                except Exception as exc:  # malformed output is a failure too
                    reason, digest = f"check raised {type(exc).__name__}: {exc}", ""
            if reason is None and reference is not None and digest != reference.get(job.id):
                reason = f"digest {digest[:12]} differs from reference {reference.get(job.id)}"
            total += elapsed
            outcome["jobs"].append([job.id, elapsed])
            outcome["digests"][job.id] = digest
            if reason is not None:
                detail = sink.getvalue().strip()
                outcome["failures"].append([job.id, reason + (f" [{detail}]" if detail else "")])
            sink.seek(0)
            sink.truncate()
            if after_job is not None:
                after_job(elapsed)
    finally:
        sys.stderr = saved
        if tracer is not None:
            tracer.job = None
    return total


def new_outcome() -> dict:
    return {"jobs": [], "failures": [], "digests": {}}


def timed(jobs, seconds: float, reference, kernel) -> dict:
    """Untraced passes for seconds, with the reference kernel timed between
    jobs after every KERNEL_EVERY_S seconds of job time or more."""
    run_pass(jobs, new_outcome())  # warm-up: first-touch page faults, lazy imports
    outcome = new_outcome()
    kernel_s, since = [kernel()], 0.0

    def after_job(elapsed: float) -> None:
        nonlocal since
        since += elapsed
        if since >= KERNEL_EVERY_S:
            kernel_s.append(kernel())
            since = 0.0

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(jobs, outcome, reference, after_job=after_job))
    outcome.update(passes=passes, kernel_s=kernel_s)
    return outcome


def _median_per_pass(per_pass: list[dict], key: str) -> float:
    return statistics.median(p.get(key, 0.0) for p in per_pass)


def traced(jobs, seconds: float, reference, tracer) -> dict:
    import layers
    from metrics import COUNT_METRICS, PEAK_METRICS, SELF_TIME_METRICS
    from tracer import Tracer

    generate_s = tracer.self_times().get("synth.make_step_signal", 0.0)
    tracer.uninstall()
    run_pass(jobs, new_outcome())  # warm-up
    outcome = new_outcome()
    plain, traced_walls, per_pass = [], [], []
    start = time.perf_counter()
    while len(traced_walls) < 1 or time.perf_counter() - start < seconds:
        plain.append(run_pass(jobs, outcome, reference))
        layers.install(tracer)
        first = len(tracer.spans)
        traced_walls.append(run_pass(jobs, outcome, reference, tracer))
        tracer.uninstall()
        stats = tracer.self_times(first)
        stats.update(tracer.counts)
        per_pass.append(stats)
        tracer.counts.clear()

    memory = Tracer(memory=True)
    tracemalloc.start()
    layers.install(memory)
    try:
        run_pass(jobs, outcome, reference, memory)
    finally:
        memory.uninstall()
        tracemalloc.stop()
    peaks = memory.peaks()

    metrics = {}
    for name, spans in SELF_TIME_METRICS.items():
        metrics[name] = statistics.median(sum(p.get(s, 0.0) for s in spans) for p in per_pass)
    for name, spans in PEAK_METRICS.items():
        metrics[name] = max((peaks.get(s, 0) for s in spans), default=0) / 2**20
    for name in COUNT_METRICS:
        metrics[name] = _median_per_pass(per_pass, name)
    tests = _median_per_pass(per_pass, "edivisive.tests")
    accepted = _median_per_pass(per_pass, "edivisive.accepted")
    metrics["edivisive.accept_ratio"] = accepted / tests if tests else 0.0
    metrics["synth.generate_s"] = generate_s
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)

    outcome.update(per_layer=metrics, spans=tracer.spans, memory_spans=memory.spans)
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=["setup", "timed", "traced", "digests"], required=True)
    parser.add_argument("--workdir", required=True,
                        help="existing directory for CLI reports and plots")
    parser.add_argument("--spans", help="traced mode: write the recorded spans here")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    stepscan = import_stepscan()
    import numpy
    import workloads
    from hostspeed import ReferenceKernel
    from metrics import DEFAULT_SEED

    tracer = None
    if args.mode == "traced":
        import layers
        from tracer import Tracer
        tracer = layers.install(Tracer())
    jobs = workloads.build(args.workload, args.seed, args.workdir)
    setup_s = time.perf_counter() - T0

    reference = None
    if args.seed == DEFAULT_SEED and args.mode != "digests":
        reference = load_reference(args.workload)
    setup_kernel_s = None
    if args.mode == "digests":
        outcome = new_outcome()
        outcome["passes"] = [run_pass(jobs, outcome)]
    elif args.mode == "traced":
        outcome = traced(jobs, args.seconds, reference, tracer)
        spans, memory_spans = outcome.pop("spans"), outcome.pop("memory_spans")
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "fields": ["name", "start", "end", "parent", "job", "peak_bytes"],
                           "spans": spans, "memory_spans": memory_spans}, fh)
    else:
        kernel = ReferenceKernel()
        setup_kernel_s = statistics.median(kernel() for _ in range(SETUP_KERNEL_RUNS))
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "setup_kernel_s": setup_kernel_s}))
            return 0
        outcome = timed(jobs, args.seconds, reference, kernel)

    outcome.update(
        setup_s=setup_s,
        setup_kernel_s=setup_kernel_s,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        stepscan=stepscan.__version__,
    )
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
