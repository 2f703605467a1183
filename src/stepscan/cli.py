"""Command-line front end.

Subcommands: test (fluctuation tests), segment (dating), compare
(several dating methods side by side), synth (benchmark signals).
Reports are JSON documents on stdout or --out; --plot writes plot-ready
CSV. Exit codes: 0 success, 1 data error, 2 usage error, 130 interrupted
(SIGINT). Formats are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from typing import Callable

from . import __version__
from .dating import _check_dp, _most_breaks, build_rss_triangle, fitted_step, select_breaks_bic
from .edivisive import EdivConfig, e_divisive
from .fluctuation import (
    build_process,
    long_run_variance,
    mosum_process,
    plain_variance,
    sup_abs_test,
)
from .series import DataError, Segmentation, TimeSeries, UnsupportedError, deflate, log_transform, returns
from .seriesio import monthly_to_quarterly, read_csv
from .synth import make_step_signal
from .wbs import WbsConfig, wbs_segment

SCHEMA_VERSION = 1


class _TransformAction(argparse.Action):
    """Collects --log/--deflate/--returns/--quarterly in command-line order."""

    def __call__(self, parser, namespace, values, option_string=None):
        chain = getattr(namespace, "transforms", None)
        if chain is None:
            chain = []
            namespace.transforms = chain
        tag = option_string.lstrip("-")
        chain.append((tag,) if values in (None, []) else (tag, values))


def _min_seg_arg(text: str) -> tuple[str, float, bool]:
    """Parse --min-seg into (text, number, is_percentage); resolution needs the series length."""
    spec = text.strip()
    percent = spec.endswith("%")
    try:
        value = float(spec[:-1]) if percent else int(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a count or a percentage like '10%', got {text!r}") from None
    if percent and not (math.isfinite(value) and value <= 100.0):
        raise argparse.ArgumentTypeError(
            f"expected a finite percentage of at most 100%, got {text!r}")
    return spec, value, percent


def _lrv_bandwidth_arg(text: str):
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer lag or 'auto', got {text!r}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="series CSV (DATE column plus a value column)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--plot", help="write plot-ready CSV here")
    p.add_argument("--seed", type=int, default=0, help="seed for every random choice")
    p.add_argument("--log", nargs=0, action=_TransformAction,
                   help="transform: natural log")
    p.add_argument("--deflate", metavar="CSV", action=_TransformAction,
                   help="transform: divide by this deflator series")
    p.add_argument("--returns", choices=["abs", "log"], action=_TransformAction,
                   help="transform: log returns or absolute log returns")
    p.add_argument("--quarterly", choices=["mean", "last"], action=_TransformAction,
                   help="transform: aggregate a monthly series to quarters")
    p.add_argument("--deflate-base", type=int, default=None, metavar="YEAR",
                   help="base year for --deflate (default: first aligned period)")
    p.set_defaults(transforms=None)


# Smallest segment each dating method can work with.
_MIN_SEG_FLOOR = {"dp": 1, "wbs": 2, "edivisive": 2}


def _add_dating(p: argparse.ArgumentParser) -> None:
    """Options shared by segment and compare; defaults come from the config types."""
    p.add_argument("--min-seg", type=_min_seg_arg, default=None,
                   help="minimal segment length, a count or a percentage like '10%%'")
    p.add_argument("--max-breaks", type=int, default=None)
    p.add_argument("--level", type=float, default=EdivConfig.sig_level,
                   help="significance level for edivisive stopping")
    p.add_argument("--alpha", type=float, default=EdivConfig.alpha,
                   help="edivisive distance exponent (2 = mean changes only)")
    p.add_argument("--permutations", type=int, default=EdivConfig.num_permutations)
    p.add_argument("--intervals", type=int, default=WbsConfig.num_intervals)
    p.add_argument("--threshold-c", type=float, default=WbsConfig.threshold_constant)


def _parse_min_seg(spec: tuple | None, n: int, default: int, method: str) -> int:
    if spec is None:
        return default
    text, value, percent = spec
    value = int(value / 100.0 * n) if percent else value
    floor = _MIN_SEG_FLOOR[method]
    if value < floor:
        raise UnsupportedError(
            f"--min-seg {text} resolves to {value} observations; method {method}"
            f" needs at least {floor}")
    return value


def _load(args) -> tuple[TimeSeries, dict]:
    """Check --seed, read the input and apply its transforms in flag order.

    Returns the series and the report's input block.
    """
    if args.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {args.seed}")
    series = read_csv(args.input)
    applied: list[list] = []
    for tag, *arg in args.transforms or ():
        if tag == "log":
            series = log_transform(series)
        elif tag == "deflate":
            series = deflate(series, read_csv(arg[0]), base=args.deflate_base)
            arg.append(args.deflate_base)
        elif tag == "returns":
            series = returns(series, "abs_log_return" if arg[0] == "abs" else "log_return")
        else:
            series = monthly_to_quarterly(series, how=arg[0])
        applied.append([tag, *arg])
    return series, {
        "path": args.input,
        "transforms": applied,
        "n": series.n,
        "start": series.period_label(1),
        "end": series.period_label(series.n),
        "label": series.label,
    }


def _write(path: str | None, text: str) -> None:
    """Write text to path, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header: list[str], cols) -> str:
    """CSV text from equal-length columns; no field written here needs quoting."""
    rows = map(",".join, zip(*(map(str, col) for col in cols)))
    return "\n".join((",".join(header), *rows)) + "\n"


def _emit(out: str | None, input_block: dict, method: str, config: dict,
          results: dict) -> None:
    doc = {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "stepscan", "version": __version__},
        "method": method,
        "config": config,
        "results": results,
        "input": input_block,
    }
    _write(out, json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _fit_columns(series: TimeSeries, fits: list[TimeSeries]) -> list[list]:
    """The date, value and fitted columns, one entry per observation."""
    dates = [series.period_date(i).isoformat() for i in range(1, series.n + 1)]
    return [dates, series.values.tolist(), *(f.values.tolist() for f in fits)]


def _finite(x: float) -> float | str:
    return "-inf" if x == float("-inf") else x


def _segmentation_results(series: TimeSeries, seg: Segmentation) -> dict:
    return {
        "num_breaks": seg.num_breaks,
        "breaks": [{"index": b, "label": series.period_label(b)} for b in seg.breaks],
        "segment_means": list(seg.segment_means),
        "rss": seg.rss_total,
        "min_len": seg.min_len,
        "criterion_trace": [[k, _finite(v)] for k, v in seg.criterion_trace],
    }


def cmd_test(args) -> None:
    series, input_block = _load(args)
    if args.variance == "long-run":
        scale = long_run_variance(series, args.lrv_bandwidth)
    else:
        scale = plain_variance(series)

    kind = args.method.replace("-", "_")
    if kind == "mosum":
        process = mosum_process(series, args.mosum_bandwidth, scale)
    else:
        process = build_process(series, kind, scale)
    result = sup_abs_test(process, level=args.level, critical=args.critical)

    config = {
        "method": args.method,
        "level": args.level,
        "variance": args.variance,
        "lrv_bandwidth": args.lrv_bandwidth if args.variance == "long-run" else None,
        "mosum_bandwidth": args.mosum_bandwidth if kind == "mosum" else None,
        "critical": args.critical if kind == "mosum" else None,
        "seed": args.seed,
    }
    results = {
        "kind": process.kind,
        "statistic": result.statistic,
        "p_value": result.p_value,
        "crossed": result.crossed,
        "boundary": result.boundary,
        "level": result.level,
        "variance": dataclasses.asdict(scale),
    }
    _emit(args.out, input_block, args.method, config, results)
    if args.plot:
        cols = [process.times.tolist(), process.path.tolist(), result.upper.tolist(),
                (-result.upper).tolist()]
        _write(args.plot, _csv(["t", "process", "boundary_upper", "boundary_lower"], cols))


def _configure(series: TimeSeries, method: str, args) -> tuple[Callable[[], Segmentation], dict]:
    """The call that runs a method, and its report config; checks settings, runs nothing."""
    n = series.n
    if method == "dp":
        min_len = _parse_min_seg(args.min_seg, n, max(1, int(0.15 * n)), method)
        max_m = args.max_breaks if args.max_breaks is not None else min(5, _most_breaks(n, min_len))
        _check_dp(n, min_len, max_m)
        tri = build_rss_triangle(series, min_len)
        config = {"method": "dp", "min_len": min_len, "max_breaks": max_m,
                  "seed": args.seed}
        return lambda: select_breaks_bic(tri, max_m), config
    if method == "wbs":
        min_len = _parse_min_seg(args.min_seg, n, WbsConfig.min_len, method)
        cfg = WbsConfig(num_intervals=args.intervals, threshold_constant=args.threshold_c,
                        max_breaks=args.max_breaks, min_len=min_len, seed=args.seed)
        return lambda: wbs_segment(series, cfg), {"method": method, **dataclasses.asdict(cfg)}
    # edivisive; callers pass only _MIN_SEG_FLOOR keys
    min_size = _parse_min_seg(args.min_seg, n, EdivConfig.min_size, method)
    cfg = EdivConfig(min_size=min_size, alpha=args.alpha, sig_level=args.level,
                     num_permutations=args.permutations, max_breaks=args.max_breaks,
                     seed=args.seed)
    return lambda: e_divisive(series, cfg), {"method": method, **dataclasses.asdict(cfg)}


def cmd_segment(args) -> None:
    series, input_block = _load(args)
    run, config = _configure(series, args.method, args)
    seg = run()
    _emit(args.out, input_block, args.method, config, _segmentation_results(series, seg))
    if args.plot:
        cols = _fit_columns(series, [fitted_step(series, seg)])
        _write(args.plot, _csv(["date", "value", "fitted"], cols))


def _nearest(a: tuple[int, ...], b: tuple[int, ...]) -> list[tuple[int, int]]:
    """(x, nearest y in b) for each x in a; the earlier y on ties."""
    if not b:
        return []
    return [(x, min(b, key=lambda y: abs(x - y))) for x in a]


def cmd_compare(args) -> None:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if len(methods) < 2:
        raise UnsupportedError("compare needs at least two methods, e.g. --methods dp,edivisive")
    for i, m in enumerate(methods):
        if m not in _MIN_SEG_FLOOR:
            raise UnsupportedError(f"unknown segmentation method {m!r}")
        if m in methods[:i]:
            raise UnsupportedError(f"method {m!r} listed twice")
    series, input_block = _load(args)
    # config fields and the dp plan are checked up front; wbs and edivisive check n when they run
    plans = {m: _configure(series, m, args) for m in methods}
    segs = {m: plans[m][0]() for m in methods}

    pairwise = []
    for i, ma in enumerate(methods):
        for mb in methods[i + 1 :]:
            ba = segs[ma].breaks
            bb = segs[mb].breaks
            near_ab = _nearest(ba, bb)
            dists = [abs(x - y) for x, y in near_ab + _nearest(bb, ba)]
            matches = [
                {"a_label": series.period_label(x), "a_index": x,
                 "b_label": series.period_label(y), "b_index": y,
                 "distance": abs(x - y)}
                for x, y in near_ab
            ]
            pairwise.append({
                "a": ma, "b": mb,
                "max_nearest_distance": max(dists) if dists else None,
                "matches": matches,
            })

    config = {m: plans[m][1] for m in methods}
    results = {
        "methods": {m: _segmentation_results(series, segs[m]) for m in methods},
        "pairwise": pairwise,
    }
    _emit(args.out, input_block, "compare", config, results)
    if args.plot:
        cols = _fit_columns(series, [fitted_step(series, segs[m]) for m in methods])
        _write(args.plot, _csv(["date", "value"] + [f"fitted_{m}" for m in methods], cols))


def cmd_synth(args) -> None:
    try:
        means = [float(x) for x in args.means.split(",")]
        lengths = [int(x) for x in args.lengths.split(",")]
        series, true_breaks = make_step_signal(
            means, lengths, noise=args.noise, sigma=args.sigma, rho=args.rho,
            seed=args.seed)
    except ValueError as exc:
        raise UnsupportedError(f"invalid signal spec: {exc}") from None

    _write(args.out, _csv(["DATE", "value"], _fit_columns(series, [])))
    if args.truth:
        dates = [series.period_date(b).isoformat() for b in true_breaks]
        _write(args.truth, _csv(["break_index", "break_date"], [true_breaks, dates]))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The stepscan parser, built on first use and shared by later calls.

    Parsing leaves it unchanged: every parse_args call fills a fresh
    Namespace, which also holds the --log/--deflate/... chain.
    """
    parser = argparse.ArgumentParser(
        prog="stepscan",
        description="Level-shift tests and dating for univariate time series.")
    parser.add_argument("--version", action="version", version=f"stepscan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="fluctuation test for a constant level")
    _add_common(p_test)
    p_test.add_argument("--method", choices=["rec-cusum", "ols-cusum", "mosum"],
                        default="ols-cusum")
    p_test.add_argument("--level", type=float, default=0.05)
    p_test.add_argument("--variance", choices=["plain", "long-run"], default="plain")
    p_test.add_argument("--lrv-bandwidth", type=_lrv_bandwidth_arg, default="auto",
                        help="Bartlett lag for --variance long-run (int or 'auto')")
    p_test.add_argument("--mosum-bandwidth", type=float, default=0.15,
                        help="MOSUM window as a fraction of the sample")
    p_test.add_argument("--critical", type=float, default=None,
                        help="critical value for the MOSUM crossing check")
    p_test.set_defaults(func=cmd_test)

    p_seg = sub.add_parser("segment", help="date level shifts")
    _add_common(p_seg)
    p_seg.add_argument("--method", choices=list(_MIN_SEG_FLOOR), required=True)
    _add_dating(p_seg)
    p_seg.set_defaults(func=cmd_segment)

    p_cmp = sub.add_parser("compare", help="run several dating methods side by side")
    _add_common(p_cmp)
    p_cmp.add_argument("--methods", required=True,
                       help="comma-separated list, e.g. dp,edivisive,wbs")
    _add_dating(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_syn = sub.add_parser("synth", help="generate a benchmark step signal")
    p_syn.add_argument("--out", help="write the CSV here instead of stdout")
    p_syn.add_argument("--seed", type=int, default=0, help="seed for the noise")
    p_syn.add_argument("--means", required=True, help="comma-separated segment means")
    p_syn.add_argument("--lengths", required=True, help="comma-separated segment lengths")
    p_syn.add_argument("--noise", choices=["gaussian", "ar1"], default="gaussian")
    p_syn.add_argument("--sigma", type=float, default=1.0)
    p_syn.add_argument("--rho", type=float, default=0.5)
    p_syn.add_argument("--truth", help="write true break indices to this CSV")
    p_syn.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        args.func(args)
    except UnsupportedError as exc:
        print(f"stepscan: {exc}", file=sys.stderr)
        return 2
    except (DataError, ValueError, OSError) as exc:
        print(f"stepscan: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # 130 = 128 + SIGINT, as shells report a run it ended
        print("stepscan: interrupted", file=sys.stderr)
        return 130
    print(f"stepscan: completed in {(time.perf_counter() - started) * 1e3:.1f} ms",
          file=sys.stderr)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
