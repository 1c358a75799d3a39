#!/usr/bin/env python3
"""Benchmark of the curveclust command-line pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``. One workload runs in one process as a closed loop with one
client: for each generated instance ``curveclust.cli.main`` runs
``cluster``, then ``coreset``, then ``verify``, each starting only after
the previous one returned. Set-up (imports, input generation and a
warm-up pipeline) is timed separately. After every command, outside the
timed region, the outputs are checked against references that share no
code with the library (see ``reference.py``), and their sha256 digests
are compared with those recorded by earlier runs of the same library
code in this checkout.

With ``--trace 0`` the loop runs until about ``--seconds`` of pipeline
wall time is measured, and the end-to-end metrics are reported. With
``--trace 1`` a fixed number of instances runs twice, untraced and then
traced, and the per-layer metrics are reported (see ``spans.py``).

Times are reported in seconds at a reference host speed (see
``hostspeed.py``): the host is shared and its speed swings. The plain
wall-clock medians are printed as well and kept in the results file,
and the host's speed at the start and end of the run is recorded with
the environment.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. Files go to ``.perfbench_work/`` under the root: the
instances and outputs of the last run per workload, under ``digests/``
one file of digests per library code hash, and under ``results/`` one
JSON file per run (metrics, every instance's times and digests,
environment) plus the spans of traced runs.
"""

import os

# one thread per process: the loop has a single client, and BLAS threads
# would only add noise on a small shared machine
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import time

T_START = time.perf_counter()

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

import numpy as np

import hostspeed
import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3  # set-up is measured this many times; the median is reported
POOL = 48  # generated instances; a run uses fewer, so the median is over distinct ones
MIN_INSTANCES = 3
CANDIDATE_SEED = 11  # verify --seed; the candidate index sets are fixed
EXIT_DECLINED = 3  # the CLI's exit code when a curve coreset declines the instance

COMMANDS = ("cluster", "coreset", "verify")


def p50(values):
    return statistics.median(values)


def code_hash(package: Path) -> str:
    """sha256 over the library's source files, names and contents."""
    h = hashlib.sha256()
    for f in sorted(package.rglob("*.py")):
        h.update(f.relative_to(package).as_posix().encode() + b"\0")
        h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


class Digests:
    """Output digests keyed by input and invocation, kept across runs.

    The CLI promises byte-identical output for identical invocations, so
    a digest that differs from one recorded earlier in this checkout by
    the same library code marks the command as failed. Each code hash
    has its own file: digests of other code are kept for citing, not
    compared.
    """

    def __init__(self, path: Path):
        self.path = path
        path.parent.mkdir(parents=True, exist_ok=True)
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, digest: str) -> bool:
        return self.known.setdefault(key, digest) == digest

    def save(self):
        tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(self.known, indent=0, sort_keys=True))
        os.replace(tmp, self.path)


class Bench:
    """Runs and checks pipelines of one workload, counting failed commands."""

    def __init__(self, cli, w, seed, workdir, digests):
        self.cli = cli
        self.w = w
        self.seed = seed
        self.workdir = workdir
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def write_instance(self, w, seed, index, tag):
        V = workloads.instance_curves(w, seed, index)
        text = workloads.curvefile_text(V)
        path = self.workdir / f"{tag}.curves.json"
        path.write_text(text)
        return {"tag": tag, "w": w, "vertices": V, "input": path,
                "input_sha": hashlib.sha256(text.encode()).hexdigest()}

    def generate(self):
        return [self.write_instance(self.w, self.seed, j, f"i{j}") for j in range(POOL)]

    def _run_command(self, args):
        buf = io.StringIO()

        def call():
            try:
                with contextlib.redirect_stdout(buf):
                    return self.cli.main(args), None
            except Exception:  # a library bug: record it and keep measuring
                return None, traceback.format_exc()

        (rc, error), wall, ref = hostspeed.timed(call)
        return wall, ref, rc, error, buf.getvalue().encode()

    def pipeline(self, inst):
        """Run the three commands on one instance; returns times and facts."""
        w, tag, d = inst["w"], inst["tag"], self.workdir
        out = {c: d / f"{tag}.{c}.json" for c in COMMANDS}
        for p in out.values():
            p.unlink(missing_ok=True)
        argv = {
            "cluster": w.cluster_args(str(inst["input"]), str(out["cluster"])),
            "coreset": w.coreset_args(str(inst["input"]), str(out["coreset"])),
            "verify": w.verify_args(str(inst["input"]), str(out["coreset"]),
                                    str(out["verify"]), CANDIDATE_SEED),
        }
        rec = {"times": {}, "wall": {}, "rc": {}, "digests": {},
               "bytes_written": 0, "members": 0, "violations": 0, "declined": False}
        for c in COMMANDS:
            if rec["declined"]:
                break  # a declined coreset leaves nothing to verify
            rec["wall"][c], rec["times"][c], rec["rc"][c], error, stdout = (
                self._run_command(argv[c]))
            problems = self._check(c, argv[c], inst, out[c], rec, stdout)
            if error:
                problems.insert(0, f"raised:\n{error}")
            elif rec["rc"][c] != (EXIT_DECLINED if rec["declined"] else 0):
                problems.insert(0, f"exit code {rec['rc'][c]}")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"{w.name} {tag} {c}: {p}" for p in problems]
        rec["pipeline"] = sum(rec["times"].values())
        rec["wall_pipeline"] = sum(rec["wall"].values())
        return rec

    def _check(self, command, argv, inst, path, rec, stdout) -> list[str]:
        if not path.exists():
            return ["wrote no output file"]
        data = path.read_bytes()
        rec["bytes_written"] += len(data) + len(stdout)
        h = hashlib.sha256(data)
        h.update(b"\0" + stdout)
        digest = rec["digests"][command] = h.hexdigest()
        w, ref = inst["w"], reference
        problems = []
        invocation = " ".join(argv).replace(f"{self.workdir}{os.sep}", "")
        if not self.digests.check(f"{inst['input_sha']} {invocation}", digest):
            problems.append("output bytes differ from an earlier run of the same "
                            "input and library code")
        try:
            # parse, then drop the raw bytes, so the check holds one copy of
            # a large output at a time
            out = json.loads(data)
            del data
            if command == "cluster":
                problems += ref.check_cluster(out, inst["vertices"], w.objective)
            elif command == "coreset" and w.variant == "center-curves" and "declined" in out:
                # the long-edge gate is documented behaviour, not a failure
                rec["declined"] = True
                problems += ref.check_declined(out, inst["vertices"])
            elif command == "coreset":
                found, rec["members"] = ref.check_coreset(out, inst["vertices"])
                problems += found
            else:
                found, rec["violations"] = ref.check_verify(out, w.variant, w.candidates)
                problems += found
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"malformed output: {exc!r}")
        return problems

    def setup(self, import_s):
        """Generate the instance pool and warm up, SETUP_REPEATS times.

        Returns the pool, the set-up time (imports plus the median
        repeat, at reference speed) and each repeat's wall seconds.
        """
        import_s *= hostspeed.speed()
        warm_w = self.w.scaled(*self.w.warmup)

        def repeat():
            pool = self.generate()
            self.pipeline(self.write_instance(warm_w, 0, 0, "warmup"))
            return pool

        times, walls = [], []
        for _ in range(SETUP_REPEATS):
            pool, wall, ref = hostspeed.timed(repeat)
            times.append(ref)
            walls.append(wall)
        return pool, import_s + p50(times), walls


def timed_loop(bench, pool, seconds):
    """Pipelines until the next one would take the wall time past ``seconds``."""
    records = []
    measured = 0.0
    while len(records) < MIN_INSTANCES or (
        measured + p50([r["wall_pipeline"] for r in records]) <= seconds
    ):
        rec = bench.pipeline(pool[len(records) % len(pool)])
        records.append(rec)
        measured += rec["wall_pipeline"]
    return records, measured


def end_to_end(bench, records, setup_s):
    metrics = {"setup_s": (setup_s, "s")}
    for c in COMMANDS:
        metrics[f"{c}_s.p50"] = (p50([r["times"][c] for r in records if c in r["times"]]), "s")
    metrics["pipeline_s.p50"] = (p50([r["pipeline"] for r in records]), "s")
    total = sum(r["pipeline"] for r in records)
    metrics["curves_per_s"] = (bench.w.n * len(records) / total, "1/s")
    metrics["ok_frac"] = ((bench.attempted - bench.failed) / bench.attempted, "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


def traced_run(bench, pool, spans_path):
    """Each of the workload's trace instances untraced, then traced."""
    tracer = spans.Tracer()
    plain, traced, members, written = [], [], [], 0
    for j in range(workloads.TRACE_INSTANCES):
        plain.append(bench.pipeline(pool[j])["pipeline"])
        tracer.current_instance = j
        tracer.install()
        try:
            rec = bench.pipeline(pool[j])
        finally:
            tracer.uninstall()
        traced.append(rec["pipeline"])
        members.append(rec["members"] / bench.w.n)
        written += rec["bytes_written"]
    tracer.write(spans_path)
    metrics = tracer.layer_metrics()
    metrics["coresets.size_ratio"] = (statistics.fmean(members), "ratio")
    metrics["cli.bytes_written"] = (written, "B")
    metrics["trace.overhead_frac"] = (p50(traced) / p50(plain) - 1.0, "ratio")
    return metrics, len(tracer.kind)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment():
    return {
        "host_speed": hostspeed.speed(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--n", type=int,
                   help="curves per instance, overriding the workload (quick checks)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "curveclust" / "cli.py").is_file():
        print(f"error: no curveclust sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import curveclust.cli as cli
    if Path(cli.__file__).resolve().parent != src / "curveclust":
        print(f"error: imported curveclust from {cli.__file__}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    if args.n:
        w = w.scaled(args.n)
    workdir = WORK / w.name
    workdir.mkdir(parents=True, exist_ok=True)
    for old in workdir.iterdir():
        old.unlink()
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    digests = Digests(WORK / "digests" / f"{code_hash(src / 'curveclust')}.json")
    env_start = environment()

    bench = Bench(cli, w, args.seed, workdir, digests)
    pool, setup_s, setup_walls = bench.setup(import_s)
    if args.trace:
        metrics, span_count = traced_run(
            bench, pool, results / f"{w.name}-seed{args.seed}-spans.tsv")
        detail = {"spans": span_count, "instances": workloads.TRACE_INSTANCES}
    else:
        records, measured = timed_loop(bench, pool, args.seconds)
        metrics = end_to_end(bench, records, setup_s)
        detail = {"instances": len(records), "measured_wall_s": measured,
                  "wall_p50": {c: p50([r["wall"][c] for r in records if c in r["wall"]])
                               for c in COMMANDS},
                  "records": records}
    digests.save()

    env = environment()
    env["loadavg_start"] = env_start["loadavg"]
    env["host_speed_start"] = env_start["host_speed"]
    final = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "environment": env, "setup_repeats_wall_s": setup_walls, "metrics": final,
        "problems": bench.problems, **detail,
    }
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"loadavg {env_start['loadavg'][0]:.2f}->{env['loadavg'][0]:.2f}  "
          f"host speed {env_start['host_speed']:.3f}->{env['host_speed']:.3f}")
    if not args.trace:
        print(f"instances {len(records)} of n={w.n} curves (each *.p50 is a median "
              f"over them); setup repeated {SETUP_REPEATS} times")
        print("wall-clock p50 s: " + "  ".join(
            f"{c} {v:.4f}" for c, v in detail["wall_p50"].items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:>14.6g} {unit}")
    for p in bench.problems:
        print(f"FAILED {p}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": final,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
