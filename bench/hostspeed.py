"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same pass can take half again as long from one minute
to the next, as other tenants' load changes how fast this process's cores
run. The worker times this kernel between jobs and after set-up, and the
gated times are rescaled by it (metrics.at_reference_speed).

No single kind of work tracks that drift well: a tight loop on a small
working set slows less than the workloads do, library-heavy code slows
more. The kernel therefore mixes the kinds of work the workloads do:
an interpreter loop, stdlib-heavy Python (argparse, json, csv, sorting),
many numpy calls on small arrays, and numpy on L2-sized arrays. Its arrays
stay small (about 4 MB in all) so that it barely moves the worker's peak
memory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import time

import numpy as np


class ReferenceKernel:
    """Call it to run the fixed work once; returns the seconds it took."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20170222)
        self.tiny = rng.standard_normal(300)
        self.small = rng.standard_normal(20_000)
        self.medium = rng.standard_normal(100_000)
        self.big = rng.standard_normal(250_000)
        self.out = np.empty_like(self.big)
        self.records = [{"id": i, "name": f"r{i}", "v": [float(x) for x in row]}
                        for i, row in enumerate(rng.standard_normal((1500, 5)))]

    def __call__(self) -> float:
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(90_000):
            acc += i * i % 7
            table[i % 101] = acc
        for _ in range(3):
            parser = argparse.ArgumentParser()
            for i in range(12):
                parser.add_argument(f"--opt{i}", type=float, default=0.0)
            parser.add_argument("file")
            parser.parse_args(["--opt3", "2.5", "--opt7", "1", "data.csv"])
        back = json.loads(json.dumps(self.records))
        writer = csv.writer(io.StringIO())
        for rec in back:
            writer.writerow([rec["id"], rec["name"], *rec["v"]])
        sorted(((rec["v"][0], rec["name"]) for rec in back), reverse=True)
        for _ in range(300):
            np.abs(self.tiny.cumsum()).max()
            (self.tiny * self.tiny).sum()
        for _ in range(150):
            np.cumsum(self.small)
            (self.small * self.small).sum()
        np.sort(self.medium)
        np.cumsum(self.medium)
        np.subtract.outer(self.tiny, self.tiny).max()
        for _ in range(8):
            np.cumsum(self.big, out=self.out)
            np.multiply(self.big, self.big, out=self.out)
        return time.perf_counter() - start
