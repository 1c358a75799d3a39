"""Workload definitions and input generation for the curveclust benchmark.

Inputs are made here, not by ``curveclust.cli.sample_family``, so that a
change to the library's own sampler cannot silently change what the
benchmark measures. Every instance has ``k`` planted clusters: each
cluster template starts uniformly in [-SPREAD, SPREAD]^d and takes
Gaussian steps, and each member jitters every template vertex with
Gaussian noise. The library only ever sees the written curve files.
Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

SPREAD = 10.0  # templates start uniformly in [-SPREAD, SPREAD]^d
TRACE_INSTANCES = 2  # instances a traced run processes


@dataclass(frozen=True)
class Workload:
    """One family shape plus the three CLI commands run on it."""

    name: str
    n: int  # curves per instance
    k: int
    m: int  # vertices per curve
    d: int
    step: float
    jitter: float
    objective: str  # cluster --objective
    variant: str  # coreset --variant
    epsilon: float
    candidates: int  # verify --candidates random:N
    warmup: tuple  # (n, k) of the small warm-up instance
    l: int | None = None  # cluster/coreset --l, center objectives only
    rho: float | None = None  # coreset --rho, median only

    def scaled(self, n: int, k: int | None = None) -> "Workload":
        """The same workload at another family size or cluster count."""
        return Workload(**{**self.__dict__, "n": n, "k": k or self.k})

    def cluster_args(self, inp: str, out: str) -> list[str]:
        args = ["cluster", "--input", inp, "--objective", self.objective,
                "--k", str(self.k), "--output", out]
        if self.objective == "center":
            args += ["--l", str(self.l)]
        return args

    def coreset_args(self, inp: str, out: str) -> list[str]:
        args = ["coreset", "--input", inp, "--variant", self.variant,
                "--epsilon", repr(self.epsilon), "--k", str(self.k),
                "--output", out]
        if self.variant == "center-curves":
            args += ["--l", str(self.l)]
        if self.variant == "median":
            args += ["--rho", repr(self.rho), "--seed", "7"]  # fixed sampling seed
        return args

    def verify_args(self, inp: str, core: str, out: str, seed: int) -> list[str]:
        return ["verify", "--input", inp, "--coreset", core,
                "--candidates", f"random:{self.candidates}",
                "--seed", str(seed), "--output", out]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="seg1d-center",
            n=1500, k=3, m=2, d=1, step=1.0, jitter=0.5,
            objective="center", variant="center-segments", epsilon=0.5,
            l=2, candidates=10, warmup=(150, 3),
        ),
        Workload(
            name="curves-center",
            # 2 candidates rather than 10 keep an instance near 1.1 s, so a
            # run holds about 30: cluster time varies up to eightfold between
            # instances, and its median needs that many to repeat. Fewer
            # curves would trip the long-edge gate.
            n=90, k=3, m=6, d=2, step=0.2, jitter=0.5,
            objective="center", variant="center-curves", epsilon=0.5,
            l=3, candidates=2, warmup=(15, 3),
        ),
        Workload(
            name="median-curves",
            # n and rho keep an instance near 2.5 s, so a run holds a dozen.
            # Short template steps keep instances alike: with step 1.0,
            # whether cross-cluster pairs need bisection hinges on the two
            # template shapes, and instance times varied twofold.
            n=20, k=2, m=8, d=2, step=0.2, jitter=0.5,
            objective="median", variant="median", epsilon=0.9, rho=0.9,
            candidates=20,
            # k=1 keeps the warm-up coreset file small: its sample size grows as k^2
            warmup=(8, 1),
        ),
    )
}


def instance_curves(w: Workload, seed: int, index: int) -> np.ndarray:
    """Vertices of instance ``index`` of seed ``seed``, shape (n, m, d).

    Cluster sizes differ by at most one; members are listed cluster by
    cluster. The same (seed, index) always gives the same array.
    """
    rng = np.random.default_rng([seed, index])
    sizes = [w.n // w.k + (c < w.n % w.k) for c in range(w.k)]
    out = []
    for size in sizes:
        start = rng.uniform(-SPREAD, SPREAD, w.d)
        steps = rng.normal(0.0, w.step, (w.m - 1, w.d))
        template = np.vstack([start, start + np.cumsum(steps, axis=0)])
        out.append(template + rng.normal(0.0, w.jitter, (size, w.m, w.d)))
    return np.concatenate(out)


def curvefile_text(vertices: np.ndarray) -> str:
    """A curve file in the README's format, floats at full precision."""
    n, _, d = vertices.shape
    payload = {
        "dimension": d,
        "curves": [
            {"label": f"t{i}", "vertices": vertices[i].tolist()} for i in range(n)
        ],
    }
    return json.dumps(payload) + "\n"
