"""Command-line front end.

Subcommands: gen, dist, cluster, coreset, verify, bench. Curve
families travel as JSON files holding a dimension and a list of
labeled vertex arrays; coresets add a weight per member. All floats
are written with full round-trip precision and all randomized
commands require an explicit seed, so identical invocations produce
identical bytes. Output files are written atomically via a sibling
temp file.

Exit codes: 0 success, 2 invalid input or arguments, 3 when the curve
coreset construction declines the instance, 4 when an oracle guard
refuses an exhaustive enumeration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
import time

import numpy as np

from .curves import Curve, CurveSet
from .frechet import DEFAULT_REL_TOL, discrete_frechet, frechet_distance
from .clustering import k_center_approx, k_median_approx, kl_center_approx
from .coresets import (
    CoresetFailure,
    WeightedCoreset,
    center_coreset_curves,
    center_coreset_segments,
    median_coreset,
)
from .oracle import (
    GuardError,
    all_center_subsets,
    coreset_sandwich_check,
    random_center_subsets,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DECLINED = 3
EXIT_GUARD = 4


class CliError(Exception):
    """Invalid input or arguments; maps to exit code 2."""


def _atomic_write(path: str, text: str):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _emit(args, text: str):
    if getattr(args, "output", None):
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _dump_json(payload) -> str:
    return json.dumps(_jsonify(payload), indent=2) + "\n"


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from None


def read_curvefile(path: str) -> CurveSet:
    """Load a curve family from JSON, validating shape and dimension."""
    raw = _load_json(path)
    try:
        dim = int(raw["dimension"])
        entries = raw["curves"]
    except (KeyError, TypeError) as exc:
        raise CliError(f"{path} lacks a dimension or curve list: {exc}") from None
    if not isinstance(entries, list) or not entries:
        raise CliError(f"{path} holds no curves")
    curves = []
    for pos, entry in enumerate(entries):
        try:
            c = Curve(entry["vertices"], label=entry.get("label"))
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"curve #{pos} in {path} is malformed: {exc}") from None
        if c.dimension != dim:
            raise CliError(
                f"curve #{pos} in {path} has dimension {c.dimension}, expected {dim}"
            )
        curves.append(c)
    return CurveSet(curves)


def curvefile_payload(cs: CurveSet) -> dict:
    return {
        "dimension": cs.dimension,
        "curves": [
            {"label": c.label, "vertices": c.vertices.tolist()} for c in cs
        ],
    }


def coresetfile_payload(coreset: WeightedCoreset, dimension: int) -> dict:
    meta = {k: _jsonify(v) for k, v in coreset.meta.items() if k != "distribution"}
    return {
        "dimension": dimension,
        "epsilon": coreset.epsilon,
        "members": [
            {
                "label": c.label,
                "vertices": c.vertices.tolist(),
                "weight": float(w),
            }
            for c, w in zip(coreset.members, coreset.weights)
        ],
        "meta": meta,
    }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def read_coresetfile(path: str):
    raw = _load_json(path)
    try:
        members = [
            Curve(e["vertices"], label=e.get("label")) for e in raw["members"]
        ]
        weights = [float(e["weight"]) for e in raw["members"]]
        eps = float(raw["epsilon"])
        meta = dict(raw.get("meta", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path} is not a coreset file: {exc}") from None
    idx = meta.get("member_indices", [])
    if not isinstance(idx, list) or not all(_is_int(i) for i in idx):
        raise CliError(f"{path}: meta.member_indices must be a list of integers")
    k = meta.get("k", 1)
    if not (_is_int(k) and k >= 1):
        raise CliError(f"{path}: meta.k must be an integer of at least 1")
    return WeightedCoreset(members, np.asarray(weights), eps, meta)


def _lookup(cs: CurveSet, token: str) -> Curve:
    for c in cs:
        if c.label == token:
            return c
    try:
        return cs[int(token)]
    except (ValueError, IndexError):
        raise CliError(f"no curve labeled or indexed {token!r}") from None


def sample_family(
    seed, clusters, per_cluster, complexity, dimension,
    spread=10.0, step=1.0, noise=0.5,
) -> CurveSet:
    """Sample clustered polygonal curves deterministically.

    One generator drives everything, consumed in a fixed order: for
    each cluster, first the template start point and its step vectors,
    then per member a noise offset for every vertex.
    """
    if clusters < 1 or per_cluster < 1:
        raise CliError("need at least one cluster and one curve per cluster")
    if complexity < 2:
        raise CliError("complexity must be at least 2")
    if dimension < 1:
        raise CliError("dimension must be at least 1")
    rng = np.random.default_rng(seed)
    curves = []
    for ci in range(clusters):
        start = rng.uniform(-spread, spread, dimension)
        steps = rng.normal(0.0, step, (complexity - 1, dimension))
        template = np.vstack([start, start + np.cumsum(steps, axis=0)])
        for mi in range(per_cluster):
            jitter = rng.normal(0.0, noise, template.shape)
            curves.append(Curve(template + jitter, label=f"c{ci}-{mi}"))
    return CurveSet(curves)


def cmd_gen(args) -> int:
    """Sample clustered polygonal curves and write them as a curve file."""
    cs = sample_family(
        args.seed, args.clusters, args.per_cluster, args.complexity,
        args.dimension, args.spread, args.step, args.noise,
    )
    _emit(args, _dump_json(curvefile_payload(cs)))
    return EXIT_OK


def cmd_dist(args) -> int:
    """Report continuous (bracketed) and discrete distances for one pair."""
    cs = read_curvefile(args.input)
    a = _lookup(cs, args.first)
    b = _lookup(cs, args.second)
    r = frechet_distance(a, b, args.rel_tol)
    payload = {
        "first": args.first,
        "second": args.second,
        "continuous": {
            "value": r.value,
            "lower": r.lower,
            "upper": r.upper,
            "tolerance": r.tolerance,
        },
        "discrete": discrete_frechet(a, b),
    }
    _emit(args, _dump_json(payload))
    return EXIT_OK


def cmd_cluster(args) -> int:
    """Cluster a curve file under the chosen objective and report the result."""
    cs = read_curvefile(args.input)
    try:
        if args.objective == "center":
            clust = kl_center_approx(cs, args.k, args.l)
        elif args.objective == "center-discrete":
            clust = k_center_approx(cs, args.k)
        else:
            clust = k_median_approx(cs, args.k)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    payload = {
        "objective": args.objective,
        "k": clust.objective.k,
        "l": clust.objective.l,
        "cost": clust.cost,
        "centers": [
            {"label": c.label, "vertices": c.vertices.tolist()}
            for c in clust.centers
        ],
        "assignment": list(clust.assignment),
    }
    for key in ("center_indices", "picked_indices", "seed_cost", "swaps"):
        if key in clust.meta:
            payload[key] = _jsonify(clust.meta[key])
    if "swaps" in clust.meta:
        payload["swap_count"] = len(clust.meta["swaps"])
    _emit(args, _dump_json(payload))
    return EXIT_OK


_CORESET_VARIANTS = {
    "center-segments": lambda cs, eps, a: center_coreset_segments(cs, eps, a.k),
    "center-curves": lambda cs, eps, a: center_coreset_curves(cs, eps, a.k, a.l),
    "median": lambda cs, eps, a: median_coreset(cs, eps, a.k, a.rho, a.seed),
}


def _build_coreset(cs: CurveSet, eps: float, args):
    try:
        return _CORESET_VARIANTS[args.variant](cs, eps, args)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def cmd_coreset(args) -> int:
    """Build a coreset of the requested variant and write it to a file."""
    cs = read_curvefile(args.input)
    if args.variant == "median" and args.seed is None:
        raise CliError("the median variant draws samples and needs --seed")
    result = _build_coreset(cs, args.epsilon, args)
    if isinstance(result, CoresetFailure):
        payload = {
            "declined": True,
            "longest_edge": result.longest_edge,
            "approx_cost": result.approx_cost,
            "limit": result.limit,
        }
        _emit(args, _dump_json(payload))
        return EXIT_DECLINED
    payload = coresetfile_payload(result, cs.dimension)
    _emit(args, _dump_json(payload))
    summary = {
        "variant": args.variant,
        "input_size": len(cs),
        "coreset_size": len(result),
    }
    if getattr(args, "output", None):
        sys.stdout.write(_dump_json(summary))
    return EXIT_OK


def _parse_candidates(choice: str, n: int, k: int, seed, guard_n: int):
    if choice == "exhaustive":
        return list(all_center_subsets(n, k, limit=guard_n))
    if choice.startswith("random:"):
        count = int(choice.split(":", 1)[1])
        if count < 1:
            raise CliError("candidate count must be positive")
        if seed is None:
            raise CliError("random candidates need --seed")
        if not 1 <= k <= n:
            raise CliError(f"random candidates need --k in 1..{n}, got {k}")
        return random_center_subsets(n, k, count, seed)
    raise CliError(f"unknown candidate choice {choice!r}")


def cmd_verify(args) -> int:
    """Replay a coreset against its input over explicit candidate center sets."""
    cs = read_curvefile(args.input)
    coreset = read_coresetfile(args.coreset)
    eps = args.epsilon if args.epsilon is not None else coreset.epsilon
    variant = coreset.meta.get("variant", "center-segments")
    kind = "median" if variant == "median" else "center"
    if args.objective:
        kind = args.objective
    k = args.k if args.k is not None else coreset.meta.get("k", 1)
    candidates = _parse_candidates(
        args.candidates, len(cs), k, args.seed, args.guard_n
    )
    report = coreset_sandwich_check(cs, coreset, eps, candidates, kind=kind)
    payload = {
        "kind": kind,
        "epsilon": eps,
        "candidates": report.checked,
        "passed": report.passed,
        "worst_margin": report.worst_margin,
        "violations": _jsonify(report.violations),
        "records": _jsonify(report.records),
    }
    _emit(args, _dump_json(payload))
    return EXIT_OK


def cmd_bench(args) -> int:
    """Time coreset construction over a small instance ladder; emit CSV."""
    rows = []
    sizes = [int(s) for s in args.sizes.split(",")]
    epsilons = [float(e) for e in args.epsilons.split(",")]
    for n in sizes:
        for eps in epsilons:
            cs = sample_family(
                args.seed, args.k, max(1, n // args.k),
                args.complexity, args.dimension,
            )
            t0 = time.perf_counter()
            core = _build_coreset(cs, eps, args)
            elapsed = time.perf_counter() - t0
            if isinstance(core, CoresetFailure):
                rows.append(
                    [args.variant, len(cs), args.complexity, args.k, args.l, eps,
                     "declined", f"{elapsed:.6f}", "", ""]
                )
                continue
            cands = random_center_subsets(len(cs), args.k, args.candidates, args.seed)
            kind = "median" if args.variant == "median" else "center"
            rep = coreset_sandwich_check(cs, core, eps, cands, kind=kind)
            ratios = [r["coreset"] / r["full"] for r in rep.records if r["full"] > 0]
            rows.append(
                [args.variant, len(cs), args.complexity, args.k, args.l, eps,
                 len(core), f"{elapsed:.6f}",
                 repr(min(ratios)) if ratios else "",
                 repr(max(ratios)) if ratios else ""]
            )
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["variant", "n", "m", "k", "l", "epsilon", "size", "build_seconds",
         "ratio_min", "ratio_max"]
    )
    writer.writerows(rows)
    _emit(args, buf.getvalue())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curveclust",
        description="Cluster polygonal curves and build verified coresets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--output", help="write here instead of stdout")

    p = sub.add_parser("gen", help="sample clustered curves into a curve file")
    p.add_argument("--clusters", type=int, default=3)
    p.add_argument("--per-cluster", type=int, default=10)
    p.add_argument("--complexity", type=int, default=2,
                   help="vertices per curve")
    p.add_argument("--dimension", type=int, default=2)
    p.add_argument("--spread", type=float, default=10.0,
                   help="half-width of the box cluster templates start in")
    p.add_argument("--step", type=float, default=1.0,
                   help="scale of template edge steps")
    p.add_argument("--noise", type=float, default=0.5,
                   help="vertex jitter within a cluster")
    p.add_argument("--seed", type=int, required=True)
    output(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("dist", help="distance between two curves of a file")
    p.add_argument("--input", required=True)
    p.add_argument("first", help="label or index")
    p.add_argument("second", help="label or index")
    p.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL,
                   help="relative tolerance for the continuous distance")
    output(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("cluster", help="cluster a curve file")
    p.add_argument("--input", required=True)
    p.add_argument("--objective", required=True,
                   choices=["center", "center-discrete", "median"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, default=2,
                   help="vertex budget per center (center objective only)")
    output(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("coreset", help="build a coreset from a curve file")
    p.add_argument("--input", required=True)
    p.add_argument("--variant", required=True, choices=list(_CORESET_VARIANTS))
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, default=2,
                   help="vertex budget per center (center-curves only)")
    p.add_argument("--rho", type=float, default=1.0 / 3.0,
                   help="failure probability budget (median only)")
    p.add_argument("--seed", type=int, help="sampling seed (median only)")
    output(p)
    p.set_defaults(func=cmd_coreset)

    p = sub.add_parser("verify", help="check a coreset against its input")
    p.add_argument("--input", required=True)
    p.add_argument("--coreset", required=True)
    p.add_argument("--candidates", default="random:100",
                   help="'exhaustive' or 'random:N'")
    p.add_argument("--epsilon", type=float,
                   help="override the epsilon recorded in the coreset file")
    p.add_argument("--objective", choices=["center", "median"],
                   help="override the objective implied by the variant")
    p.add_argument("--k", type=int, help="candidate set size; default from the file")
    p.add_argument("--seed", type=int, help="seed for random candidates")
    p.add_argument("--guard-n", type=int, default=200000,
                   help="refuse exhaustive enumeration beyond this many sets")
    output(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time constructions over an instance ladder")
    p.add_argument("--variant", required=True, choices=list(_CORESET_VARIANTS))
    p.add_argument("--sizes", default="50,100",
                   help="comma-separated input sizes")
    p.add_argument("--epsilons", default="0.25,0.5",
                   help="comma-separated epsilon values")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--complexity", type=int, default=2)
    p.add_argument("--dimension", type=int, default=2)
    p.add_argument("--rho", type=float, default=1.0 / 3.0)
    p.add_argument("--candidates", type=int, default=50,
                   help="random candidate sets per row")
    p.add_argument("--seed", type=int, required=True)
    output(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("CORESET_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
