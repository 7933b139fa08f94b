"""Benchmark of the mockingbird package: one workload, measured in passes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  A run starts one pass after another,
each a fresh interpreter running ``worker.py`` (one client, closed loop),
until the next pass would end after ``--seconds``; it makes at least three
passes.  Every metric is the median over the passes.  Timings are scaled
to the host's fast state by probes timed between the jobs of each pass
(see ``worker.Pass`` and README.md); the run record keeps the raw times.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` untraced and traced passes alternate, and it carries the
per-layer metrics of the traced passes together with the tracing overhead
(traced minus untraced ``wall_s``).  The line before it is the full run
record, also written to ``perfbench/out/``.

``--smoke`` runs every workload at a reduced size, traced and untraced, and
checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that no job failed, and that every traced pass reports its layers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"

WORKLOADS = ("transport", "lattice", "enumerate")
MIN_PASSES = 3
RUN_LIMIT_S = 150.0  # start no pass after this; the run must end by 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
}

SEQUENCES = ("intervals", "edges", "sizes", "classes", "motzkin", "min")

# Per-layer metrics each workload measures.  A workload reports the others
# as 0: it never calls those functions.
LAYERS = {
    "transport": {
        "terms.parse_term.calls": "count",
        "terms.parse_term.busy_s": "s",
        "bridge.verify_fr_isomorphism.calls": "count",
        "bridge.verify_fr_isomorphism.busy_s": "s",
        "bridge.verify_fr_isomorphism.elements": "count",
        "bridge.verify_fr_isomorphism.elements_per_s": "1/s",
        "bridge.verify_fr_isomorphism.transport_ratio": "ratio",
        "bridge.verify_fr_isomorphism.rss_growth_mb": "MB",
    },
    "lattice": {
        "terms.parse_term.calls": "count",
        "terms.parse_term.busy_s": "s",
        "rewrite.explore_component.calls": "count",
        "rewrite.explore_component.busy_s": "s",
        "rewrite.explore_component.nodes": "count",
        "rewrite.explore_component.edges": "count",
        "posets.poset_analysis.calls": "count",
        "posets.poset_analysis.busy_s": "s",
        "posets.poset_analysis.lattice_pairs": "count",
        "rewrite.local_confluence_probe.calls": "count",
        "rewrite.local_confluence_probe.busy_s": "s",
        "rewrite.local_confluence_probe.pairs_checked": "count",
        "rewrite.local_confluence_probe.joinable_ratio": "ratio",
        "forests.forest_upset.busy_s": "s",
        "forests.forest_upset.nodes": "count",
        "posets.down_sets.busy_s": "s",
        "forests.meet.calls": "count",
        "forests.meet.busy_s": "s",
        "forests.join.calls": "count",
        "forests.join.busy_s": "s",
    },
    "enumerate": {
        **{f"sequences.{method}.{name}.busy_s": "s"
           for name in SEQUENCES
           for method in ("seq_by_recurrence", "seq_by_series")},
        "sequences.interval_family.memo_entries": "count",
        "sequences.values.bits": "count",
        "oracle.oracle_poset_counts.busy_s": "s",
        "oracle.oracle_extremal_census.busy_s": "s",
    },
}
# Reported by every worker pass of every workload.
PASS_COMMON = {"bench.check.busy_s": "s"}
# Computed here from the passes of a traced run.
RUN_COMMON = {"bench.trace.overhead_s": "s", "bench.probe.p50_ms": "ms"}


def owned_layers(workload: str) -> dict[str, str]:
    return LAYERS[workload] | PASS_COMMON


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for workload in WORKLOADS:
        units.update(LAYERS[workload])
    units.update(PASS_COMMON)
    units.update(RUN_COMMON)
    return units


class BenchError(RuntimeError):
    pass


def git_revision() -> str | None:
    """HEAD of the checkout's git directory, read without running git;
    None when the checkout is not a git repository."""
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


def source_digest() -> str:
    """SHA-1 over the package sources, which identifies the code measured
    also where no git revision is available."""
    h = hashlib.sha1()
    for path in sorted((ROOT / "src" / "mockingbird").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def one_pass(workload: str, seed: int, size: str, trace: bool,
             start: float) -> dict:
    timeout = max(5.0, 170.0 - (time.monotonic() - start))
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), workload, str(seed), size,
             "1" if trace else "0", repr(spawned_at), str(OUT_DIR)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
            # the same hash seed in every pass of a run, so that the passes
            # repeat the same allocations and collector pauses
            env=dict(os.environ, PYTHONHASHSEED=str(seed % 2**32)))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    summary["pass_s"] = time.monotonic() - spawned_at
    return summary


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               size: str) -> list[dict]:
    """Passes until the next would end after `seconds`; traced runs make
    them in (untraced, traced) cycles."""
    start = time.monotonic()
    cycle = (False, True) if trace else (False,)
    passes: list[dict] = []
    cycle_s: list[float] = []
    while True:
        t0 = time.monotonic()
        for traced in cycle:
            passes.append(one_pass(workload, seed, size, traced, start))
        cycle_s.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        next_end = elapsed + statistics.median(cycle_s)
        if len(passes) >= MIN_PASSES and next_end > seconds:
            return passes
        if next_end > RUN_LIMIT_S:
            return passes


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def job_stats(times: list[float]) -> dict:
    """Median and the highest percentile with at least ten jobs beyond it
    (the maximum when there are ten jobs or fewer), in ms."""
    ordered = sorted(times)
    n = len(ordered)
    if not n:
        return {"jobs": 0, "p50_ms": 0.0, "tail_ms": 0.0, "tail_percentile": 0.0}
    rank = n - 11 if n > 10 else n - 1
    return {"jobs": n,
            "p50_ms": statistics.median(ordered) * 1000.0,
            "tail_ms": ordered[rank] * 1000.0,
            "tail_percentile": 100.0 * (rank + 1) / n}


def job_medians(passes: list[dict]) -> list[float]:
    """Each timed job's median time over the passes; every pass of a run
    makes the same jobs in the same order."""
    timed = passes[0]["timed"]
    return [statistics.median(p["job_times"][i] for p in passes) for i in timed]


def aggregate(workload: str, passes: list[dict], trace: bool) -> dict:
    """Metric values of a run: medians over its passes."""
    plain = [p for p in passes if not p["trace"]]
    if not trace:
        stats = job_stats(job_medians(plain))
        return {
            "setup_s": median_of(plain, "setup_s"),
            "wall_s": median_of(plain, "wall_s"),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "job_p50_ms": stats["p50_ms"],
            "job_tail_ms": stats["tail_ms"],
        }
    traced = [p for p in passes if p["trace"]]
    owned = owned_layers(workload)
    metrics = {
        name: statistics.median(p["layers"][name] for p in traced)
        if name in owned else 0.0
        for name in per_layer_units()
        if name not in RUN_COMMON
    }
    metrics["bench.trace.overhead_s"] = \
        median_of(traced, "wall_s") - median_of(plain, "wall_s")
    metrics["bench.probe.p50_ms"] = statistics.median(
        p["probe_ms"]["python"]["median"] for p in passes)
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> tuple[dict, dict]:
    """Returns (result line, run record)."""
    start = time.monotonic()
    passes = run_passes(workload, seed, seconds, trace, size)
    values = aggregate(workload, passes, trace)
    units = per_layer_units() if trace else END_TO_END
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "size": size,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "source_sha1": source_digest(),
        "error_rate": failed / attempted,
        "jobs": {k: v for k, v in job_stats(job_medians(passes)).items()
                 if k in ("jobs", "tail_percentile")},
        "run_s": time.monotonic() - start,
        "metrics": values,
        "passes": [{k: v for k, v in p.items() if k not in ("job_times", "timed")}
                   for p in passes],
    }
    return result, record


def smoke() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        True: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            result, record = run_workload(workload, 1, 0, trace, "smoke")
            label = f"{workload} trace={int(trace)}"
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(want[trace]))} "
                                "differ from BENCHMARK.json")
            if result["failed"] or not result["correct"]:
                problems.append(f"{label}: error_rate {record['error_rate']}")
            for p in record["passes"]:
                if p["trace"] and set(p["layers"]) != set(owned_layers(workload)):
                    problems.append(f"{label}: layers {sorted(p['layers'])}")
            print(f"{label}: {len(record['passes'])} passes, "
                  f"{result['attempted']} jobs, {result['failed']} failed")
    for problem in problems:
        print("FAIL", problem)
    print("smoke ok" if not problems else "smoke FAILED")
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    # On SIGTERM, unwind: subprocess.run then kills the running pass and
    # waits for it, so no worker outlives the run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mockingbird" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None or args.seed is None or args.seconds is None:
            ap.error("--workload, --seed and --seconds are required")
        result, record = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    name = f"record-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
