"""Workload definitions: the jobs each pass runs and how each output is checked.

Every workload drives stepscan only through its public functions and
``stepscan.cli.main``. Functions are looked up on their module at call
time, so the wrappers that ``layers.py`` installs see every call. Why
each workload exists is in ``metrics.WHY``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

import stepscan
import stepscan.cli
import stepscan.dating
import stepscan.edivisive
import stepscan.synth
import stepscan.wbs

from metrics import WORKLOADS

DEFAULT_SIZES = {
    "dp-long": (2000, 4000, 8000),
    "wbs-long": (2000, 5000, 10000),
    "ediv-energy": ((400, 4), (600, 3)),
}

# Six regimes; the smallest level shift is two noise standard deviations.
LONG_MEANS = (0.0, 2.0, -1.0, 1.5, -0.5, 2.5)
# Largest distance between a found and a true break that still counts as
# locating it. With shifts of at least 2 sigma (3 sigma for ediv-energy) over
# segments of at least 100 observations, errors above a handful are rare.
BREAK_TOLERANCE = 20
EDIV_MEANS = (0.0, 3.0)

NILE = "fixtures/nile.csv"
MOSUM_CRITICAL = 3.0
OIL_CHAIN = ["--quarterly", "mean", "--deflate", "fixtures/gdpdef.csv",
             "--deflate-base", "2009", "--log", "fixtures/oilprice_raw.csv"]


@dataclass
class Job:
    """One unit of timed work: run() produces an output that check() judges.

    check returns (failure reason or None, digest of the output).
    """

    id: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str | None, str]]


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def segmentation_digest(seg) -> str:
    """sha256 over breaks, means, RSS and criterion trace (floats by repr)."""
    payload = [list(seg.breaks), list(seg.segment_means), seg.rss_total,
               [list(t) for t in (seg.criterion_trace or ())]]
    return digest_bytes(json.dumps(payload).encode())


def _breaks_near(found, truth, tol: int) -> str | None:
    if len(found) != len(truth):
        return f"{len(found)} breaks {list(found)}, expected {len(truth)} near {list(truth)}"
    far = [(f, t) for f, t in zip(found, truth) if abs(f - t) > tol]
    if far:
        return f"breaks {list(found)} farther than {tol} from truth {list(truth)}"
    return None


def _signal(means, n: int, k: int, seed: int):
    """k equal-length regimes cycling through means, Gaussian noise sigma 1."""
    lengths = [n // k] * k
    lengths[-1] += n - sum(lengths)
    levels = [means[i % len(means)] for i in range(k)]
    return stepscan.synth.make_step_signal(levels, lengths, seed=seed)


def _library_check(truth, tol):
    def check(seg):
        return _breaks_near(seg.breaks, truth, tol), segmentation_digest(seg)
    return check


def _dp_job(n: int, seed: int) -> Job:
    series, truth = _signal(LONG_MEANS, n, len(LONG_MEANS), seed)
    min_len = n // 20

    def run():
        tri = stepscan.dating.build_rss_triangle(series, min_len)
        return stepscan.dating.select_breaks_bic(tri, 8)
    return Job(f"dp-{n}", run, _library_check(truth, BREAK_TOLERANCE))


def _wbs_job(n: int, seed: int) -> Job:
    series, truth = _signal(LONG_MEANS, n, len(LONG_MEANS), seed)
    cfg = stepscan.WbsConfig(num_intervals=5000, seed=seed)

    def run():
        return stepscan.wbs.wbs_segment(series, cfg)
    return Job(f"wbs-{n}", run, _library_check(truth, BREAK_TOLERANCE))


def _ediv_job(n: int, k: int, seed: int) -> Job:
    series, truth = _signal(EDIV_MEANS, n, k, seed)
    # max_breaks = the true count: every accepted split is a true break,
    # and the null test that would follow has a sig_level chance of a
    # spurious extra break on any seed.
    cfg = stepscan.EdivConfig(min_size=30, alpha=1.0, num_permutations=199,
                              seed=seed, max_breaks=len(truth))

    def run():
        return stepscan.edivisive.e_divisive(series, cfg)
    return Job(f"ediv-{n}", run, _library_check(truth, BREAK_TOLERANCE))


# ---- cli-fixtures ---------------------------------------------------------

def _quarter_distance(label: str, year: int, quarter: int) -> int:
    y, q = label.split("Q")
    return abs(int(y) * 4 + int(q) - (year * 4 + quarter))


def _oil_dates_check(res: dict, targets) -> str | None:
    """Paper targets for the quarterly real oil price (acceptance tests 4, 5)."""
    labels = [b["label"] for b in res["breaks"]]
    if not 8 <= len(labels) <= 10:
        return f"{len(labels)} breaks {labels}, expected 8..10"
    for year, quarter in targets:
        if not any(_quarter_distance(lb, year, quarter) <= 1 for lb in labels):
            return f"no break within a quarter of {year}Q{quarter} in {labels}"
    return None


DP_OIL_TARGETS = ((1973, 4), (1979, 2))
EDIV_OIL_TARGETS = ((1974, 1), (1979, 4))


def _check_test(doc: dict) -> str | None:
    """The Nile level shift is significant (acceptance test 1)."""
    res = doc["results"]
    if not (res["crossed"] and res["p_value"] < 0.05):
        return f"Nile level not rejected: p={res['p_value']}, crossed={res['crossed']}"
    return None


def _check_mosum(doc: dict) -> str | None:
    """MOSUM has no p-value; its crossing flag must agree with --critical."""
    res = doc["results"]
    if res["p_value"] is not None or res["crossed"] != (res["statistic"] > MOSUM_CRITICAL):
        return f"MOSUM statistic {res['statistic']} inconsistent with crossed={res['crossed']}"
    return None


def _nile_labels(doc: dict) -> list[str]:
    return [b["label"] for b in doc["results"]["breaks"]]


def _check_nile_1898(doc: dict) -> str | None:
    labels = _nile_labels(doc)
    return None if labels == ["1898"] else f"Nile breaks {labels}, expected ['1898']"


def _check_nile_has_1898(doc: dict) -> str | None:
    labels = _nile_labels(doc)
    return None if "1898" in labels else f"Nile breaks {labels} miss 1898"


def _check_oil_dp(doc: dict) -> str | None:
    return _oil_dates_check(doc["results"], DP_OIL_TARGETS)


def _check_oil_compare(doc: dict) -> str | None:
    methods = doc["results"]["methods"]
    return (_oil_dates_check(methods["dp"], DP_OIL_TARGETS)
            or _oil_dates_check(methods["edivisive"], EDIV_OIL_TARGETS))


def _cli_specs() -> list[tuple[str, list[str], Callable[[dict], str | None]]]:
    specs = []
    for method in ("rec-cusum", "ols-cusum", "mosum"):
        for variance in ("plain", "long-run"):
            argv = ["test", "--method", method, "--variance", variance]
            check = _check_test
            if method == "mosum":
                argv += ["--critical", str(MOSUM_CRITICAL)]
                check = _check_mosum
            specs.append((f"test-{method}-{variance}", argv + [NILE], check))
    specs += [
        ("segment-dp-nile",
         ["segment", "--method", "dp", "--min-seg", "15", "--max-breaks", "5", NILE],
         _check_nile_1898),
        # WBS also splits at 1915 on Nile; the paper target is the 1898 dam.
        ("segment-wbs-nile", ["segment", "--method", "wbs", NILE], _check_nile_has_1898),
        # min-seg 15 as in the README: the default 30 cannot place a break at 1898.
        ("segment-edivisive-nile",
         ["segment", "--method", "edivisive", "--alpha", "2", "--min-seg", "15", NILE],
         _check_nile_1898),
        ("segment-dp-oil",
         ["segment", "--method", "dp", "--min-seg", "10", "--max-breaks", "15"] + OIL_CHAIN,
         _check_oil_dp),
        ("compare-dp-edivisive-oil",
         ["compare", "--methods", "dp,edivisive", "--min-seg", "10", "--max-breaks", "15",
          "--alpha", "2"] + OIL_CHAIN,
         _check_oil_compare),
    ]
    return specs


def _cli_job(job_id: str, argv: list[str], target, seed: int, workdir: str) -> Job:
    out = os.path.join(workdir, f"{job_id}.json")
    plot = os.path.join(workdir, f"{job_id}.csv")
    full = argv + ["--seed", str(seed), "--out", out, "--plot", plot]

    def run():
        return stepscan.cli.main(full)

    def check(code):
        if code != 0:
            return f"exit code {code}", ""
        with open(out, "rb") as fh:
            data = fh.read()
        return target(json.loads(data)), digest_bytes(data)
    return Job(job_id, run, check)


def build(name: str, seed: int, workdir: str, sizes=None) -> list[Job]:
    """The job list of one pass, with its inputs generated from seed.

    workdir receives CLI reports and plots; it must exist and the process
    must run from the repository root so relative fixture paths resolve.
    sizes overrides DEFAULT_SIZES (tests use tiny sizes).
    """
    if name == "cli-fixtures":
        return [_cli_job(jid, argv, target, seed, workdir)
                for jid, argv, target in _cli_specs()]
    sizes = DEFAULT_SIZES[name] if sizes is None else sizes
    if name == "dp-long":
        return [_dp_job(n, seed * 1000 + i) for i, n in enumerate(sizes)]
    if name == "wbs-long":
        return [_wbs_job(n, seed * 1000 + i) for i, n in enumerate(sizes)]
    if name == "ediv-energy":
        return [_ediv_job(n, k, seed * 1000 + i) for i, (n, k) in enumerate(sizes)]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
