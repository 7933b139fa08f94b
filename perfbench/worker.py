"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SIZE TRACE SPAWNED_AT OUT_DIR

A pass imports the package from ``src/`` of the checkout, generates its
inputs, runs the timed phase (a closed loop of jobs, one at a time), checks
every answer against the references in ``inputs.py`` and prints one JSON
summary line.  SPAWNED_AT is the parent's ``time.monotonic()`` just before
it started this process, so ``setup_s`` includes interpreter start-up.
With TRACE 1 a span is kept for every job and for every call into the
package; the spans are written to OUT_DIR when the pass ends.

Module caches (interned terms, memo tables) persist inside a process, so
every pass runs cold, as a command-line user does.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
ALPHABET = frozenset({"M"})
clock = time.perf_counter

# Job times are scaled by REF_PROBE_MS[kind] / probe time, with both probes
# read between jobs at most every PROBE_EVERY_S: they read as seconds on a
# host where the probes take REF_PROBE_MS (the 2-CPU host of the baseline
# in its fast state).  A job's kind names the probe whose work it resembles.
REF_PROBE_MS = {"python": 2.2, "bits": 2.4}
PROBE_EVERY_S = 0.25


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1]."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    def begin(self, name: str, parent: int = -1) -> int:
        self.spans.append([name, clock(), 0.0, parent])
        return len(self.spans) - 1

    def end(self, i: int) -> None:
        self.spans[i][2] = clock()

    def call(self, name: str, parent: int, fn, *args):
        i = self.begin(name, parent)
        try:
            return fn(*args)
        finally:
            self.end(i)

    def busy(self, factors: dict[int, float]) -> dict[str, float]:
        """Summed duration per name of the spans inside jobs, each scaled
        by the factor of its job's span."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                out[name] += (end - start) * factors[parent]
        return out

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[n], a, b, p] for n, a, b, p in self.spans]
        path.write_text(json.dumps(
            {"names": names, "fields": ["name", "start", "end", "parent"],
             "spans": rows}))


class NullTracer:
    """Tracing off: calls go straight through."""

    def begin(self, name: str, parent: int = -1) -> int:
        return -1

    def end(self, i: int) -> None:
        pass

    def call(self, name: str, parent: int, fn, *args):
        return fn(*args)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Pass:
    """Jobs of one timed phase.  ``timed`` lists the job indices whose
    times make the job percentiles; ``results`` holds each job's return
    value, or the exception it raised.

    A job may pass ``check``, which turns its answer into a verdict right
    after it, so that the pass does not keep every answer alive.  Check
    time (``check_s``) is not job time.

    Between jobs, at most every PROBE_EVERY_S, the pass times the host
    probes; ``probes`` holds (jobs done so far, {kind: probe ms}).  Probe
    time is not job time either."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kinds: list[str] = []
        self.results: list = []
        self.timed: list[int] = []
        self.spans: list[int] = []
        self.check_s = 0.0
        self.probes = [(0, probe_point())]
        self.next_probe = clock() + PROBE_EVERY_S

    def job(self, tr, fn, *args, timed: bool = True, check=None,
            kind: str = "python"):
        span = tr.begin("bench.job")
        t0 = clock()
        try:
            result = fn(tr, span, *args)
        except Exception as exc:  # a failed job must not abort the run
            result = exc
        self.times.append(clock() - t0)
        self.kinds.append(kind)
        tr.end(span)
        if check is not None and not isinstance(result, Exception):
            t0 = clock()
            result = check(result)
            self.check_s += clock() - t0
        if timed:
            self.timed.append(len(self.results))
        self.spans.append(span)
        self.results.append(result)
        if clock() >= self.next_probe:
            self.probes.append((len(self.results), probe_point()))
            self.next_probe = clock() + PROBE_EVERY_S
        return result

    def finish(self) -> None:
        self.probes.append((len(self.results), probe_point()))

    def factors(self) -> list[float]:
        """Per job, REF_PROBE_MS over the mean of the probes of its kind
        taken just before and just after it."""
        out = []
        k = 0
        for i, kind in enumerate(self.kinds):
            while self.probes[k + 1][0] <= i:
                k += 1
            before, after = self.probes[k][1][kind], self.probes[k + 1][1][kind]
            out.append(2 * REF_PROBE_MS[kind] / (before + after))
        return out


# ---------------------------------------------------------------------------
# transport: parse, then verify_fr_isomorphism, one job per term string


def prepare_transport(seed: int, size: dict) -> dict:
    from mockingbird.bridge import verify_fr_isomorphism
    from mockingbird.terms import parse_term

    return {"items": inputs.transport_inputs(seed, **size),
            "parse": parse_term, "verify": verify_fr_isomorphism}


def run_transport(st: dict, tr) -> Pass:
    parse, verify = st["parse"], st["verify"]

    def job(tr, span, text):
        term = tr.call("terms.parse_term", span, parse, text, ALPHABET)
        rep = tr.call("bridge.verify_fr_isomorphism", span, verify, term)
        return rep.verdict, rep.method, rep.term_count, rep.forest_count

    p = Pass()
    for text, _ in st["items"]:
        p.job(tr, job, text)
    return p


def check_transport(st: dict, p: Pass) -> set[int]:
    failed = set()
    for i, ((_, expected), res) in enumerate(zip(st["items"], p.results)):
        if isinstance(res, Exception) or res[0] != "isomorphic" or \
                not res[2] == res[3] == expected:
            failed.add(i)
    return failed


def layer_transport(st: dict, p: Pass, busy: dict) -> dict:
    reports = [r for r in p.results if not isinstance(r, Exception)]
    n = len(st["items"])
    elements = sum(r[2] for r in reports)
    verify_s = busy["bridge.verify_fr_isomorphism"]
    return {
        "terms.parse_term.calls": n,
        "terms.parse_term.busy_s": busy["terms.parse_term"],
        "bridge.verify_fr_isomorphism.calls": n,
        "bridge.verify_fr_isomorphism.busy_s": verify_s,
        "bridge.verify_fr_isomorphism.elements": elements,
        "bridge.verify_fr_isomorphism.elements_per_s":
            elements / verify_s if verify_s else 0.0,
        "bridge.verify_fr_isomorphism.transport_ratio":
            sum(r[1] == "fr-transport" for r in reports) / n,
    }


# ---------------------------------------------------------------------------
# lattice: term upsets of small combinators, then the ladder forest upset
# and meet/join on seeded pairs of its elements, one job per pair


def prepare_lattice(seed: int, size: dict) -> dict:
    from mockingbird import forests, posets, rewrite
    from mockingbird.terms import parse_term

    st = inputs.lattice_inputs(seed, **size)
    st.update(parse=parse_term, rewrite=rewrite, posets=posets,
              forests=forests, system=rewrite.load_system("builtin:M"))
    return st


def run_lattice(st: dict, tr) -> Pass:
    rw, po, fo, system = st["rewrite"], st["posets"], st["forests"], st["system"]

    def term_job(tr, span, text):
        t = tr.call("terms.parse_term", span, st["parse"], text, ALPHABET)
        g = tr.call("rewrite.explore_component", span,
                    rw.explore_component, system, t, "up")
        tr.call("posets.poset_analysis", span, po.poset_analysis, g, True)
        rep = tr.call("rewrite.local_confluence_probe", span,
                      rw.local_confluence_probe, system, t)
        return (len(g.nodes), len(g.step_edges), g.is_lattice,
                rep.pairs_checked, rep.joinable_pairs, rep.all_joinable)

    def forest_job(tr, span, base):
        g = tr.call("forests.forest_upset", span, fo.forest_upset, base)
        tr.call("posets.poset_analysis", span, po.poset_analysis, g, True)
        down = tr.call("posets.down_sets", span, po.down_sets, g)
        return g, down

    def pair_job(tr, span, x, y):
        m = tr.call("forests.meet", span, fo.meet, x, y)
        j = tr.call("forests.join", span, fo.join, x, y)
        return m, j

    def no_upset(tr, span):
        raise RuntimeError("the forest upset failed, so there is no pair")

    # term and forest jobs spend most of their time in poset_analysis and
    # down_sets, on big-integer bitsets
    p = Pass()
    for text, _, _ in st["terms"]:
        p.job(tr, term_job, text, timed=False, kind="bits")
    upset = p.job(tr, forest_job, st["ladder"], timed=False, kind="bits")
    if isinstance(upset, Exception):
        for _ in st["pairs"]:
            p.job(tr, no_upset)
        return p
    (g, down), reach = upset, upset[0].reach
    t0 = clock()
    index = {x: i for i, x in enumerate(g.nodes)}
    p.check_s += clock() - t0

    def pair_ok(res, a, b) -> bool:
        # greatest lower bound: the common lower bounds are exactly the
        # down-set of the meet; dually for the join
        m, j = index.get(res[0]), index.get(res[1])
        return m is not None and j is not None and \
            down[m] == down[a] & down[b] and reach[j] == reach[a] & reach[b]

    for a, b in st["pairs"]:
        p.job(tr, pair_job, g.nodes[a], g.nodes[b],
              check=lambda res, a=a, b=b: pair_ok(res, a, b))
    return p


def check_lattice(st: dict, p: Pass) -> set[int]:
    failed = set()
    n_terms = len(st["terms"])
    for i, ((_, size, redexes), res) in enumerate(zip(st["terms"], p.results)):
        pairs = redexes * (redexes - 1) // 2
        if isinstance(res, Exception) or res[0] != size or res[2] is not True \
                or res[3] != pairs or res[4] != pairs or not res[5]:
            failed.add(i)
    upset = p.results[n_terms]
    if isinstance(upset, Exception):
        failed.add(n_terms)
    else:
        g, down = upset
        intervals = sum(r.bit_count() for r in g.reach)
        transpose_ok = sum(d.bit_count() for d in down) == intervals and all(
            down[j] >> i & 1
            for i, r in enumerate(g.reach)
            for j in _bits(r))
        if len(g.nodes) != st["ladder_size"] or g.is_lattice is not True or \
                intervals != st["ladder_intervals"] or not transpose_ok:
            failed.add(n_terms)
    # pair answers were checked as they came (run_lattice's pair_ok)
    failed.update(k for k, ok in enumerate(p.results[n_terms + 1:],
                                           start=n_terms + 1)
                  if ok is not True)
    return failed


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def layer_lattice(st: dict, p: Pass, busy: dict) -> dict:
    n_terms = len(st["terms"])
    terms = [r for r in p.results[:n_terms] if not isinstance(r, Exception)]
    upset = p.results[n_terms]
    forest_nodes = 0 if isinstance(upset, Exception) else len(upset[0].nodes)
    sizes = [r[0] for r in terms] + [forest_nodes]
    pairs_checked = sum(r[3] for r in terms)
    n_pairs = len(st["pairs"])
    return {
        "terms.parse_term.calls": n_terms,
        "terms.parse_term.busy_s": busy["terms.parse_term"],
        "rewrite.explore_component.calls": n_terms,
        "rewrite.explore_component.busy_s": busy["rewrite.explore_component"],
        "rewrite.explore_component.nodes": sum(r[0] for r in terms),
        "rewrite.explore_component.edges": sum(r[1] for r in terms),
        "posets.poset_analysis.calls": n_terms + 1,
        "posets.poset_analysis.busy_s": busy["posets.poset_analysis"],
        # the lattice check visits every unordered pair of a lattice
        "posets.poset_analysis.lattice_pairs": sum(s * (s - 1) // 2 for s in sizes),
        "rewrite.local_confluence_probe.calls": n_terms,
        "rewrite.local_confluence_probe.busy_s":
            busy["rewrite.local_confluence_probe"],
        "rewrite.local_confluence_probe.pairs_checked": pairs_checked,
        "rewrite.local_confluence_probe.joinable_ratio":
            sum(r[4] for r in terms) / pairs_checked if pairs_checked else 0.0,
        "forests.forest_upset.busy_s": busy["forests.forest_upset"],
        "forests.forest_upset.nodes": forest_nodes,
        "posets.down_sets.busy_s": busy["posets.down_sets"],
        "forests.meet.calls": n_pairs,
        "forests.meet.busy_s": busy["forests.meet"],
        "forests.join.calls": n_pairs,
        "forests.join.busy_s": busy["forests.join"],
    }


# ---------------------------------------------------------------------------
# enumerate: recurrence and series for the six sequences, then the oracle
# counts and the extremal census, one job per call


def prepare_enumerate(seed: int, size: dict) -> dict:
    from mockingbird import oracle, sequences

    # the inputs are fixed counts; the seed changes nothing here
    return dict(size, oracle=oracle, sequences=sequences)


def run_enumerate(st: dict, tr) -> Pass:
    seq, orc = st["sequences"], st["oracle"]

    def seq_job(tr, span, method, name, count):
        fn = getattr(seq, method)
        return tr.call(f"sequences.{method}.{name}", span, fn, name, count).values

    def oracle_job(tr, span, d):
        c = tr.call("oracle.oracle_poset_counts", span,
                    orc.oracle_poset_counts, d)
        return c.elements, c.hasse_edges, c.intervals, c.cover_equals_step

    def census_job(tr, span, degree):
        return tr.call("oracle.oracle_extremal_census", span,
                       orc.oracle_extremal_census, degree)

    p = Pass()
    for name, count in st["counts"].items():
        for method in ("seq_by_recurrence", "seq_by_series"):
            p.job(tr, seq_job, method, name, count)
    for d in range(st["oracle_max_d"] + 1):
        p.job(tr, oracle_job, d)
    for degree in range(st["census_max_degree"] + 1):
        p.job(tr, census_job, degree)
    return p


def check_enumerate(st: dict, p: Pass) -> set[int]:
    failed = set()
    names = list(st["counts"])
    rec: dict[str, list] = {}
    for k, name in enumerate(names):
        r, s = p.results[2 * k], p.results[2 * k + 1]
        bad = [isinstance(x, Exception) for x in (r, s)]
        if not any(bad) and r != s:
            bad = [True, True]
        golden = inputs.GOLDEN[name]
        take = min(len(golden), st["counts"][name])
        if not bad[0] and r[:take] != golden[:take]:
            bad[0] = True
        if not bad[0]:
            rec[name] = r
        failed.update(2 * k + i for i, b in enumerate(bad) if b)
    base = 2 * len(names)
    for d in range(st["oracle_max_d"] + 1):
        res = p.results[base + d]
        # ladder depth d is conventional index d + 1 of the poset counts
        want = tuple(rec[n][d + 1] if n in rec else None
                     for n in ("sizes", "edges", "intervals")) + (True,)
        if isinstance(res, Exception) or tuple(res) != want:
            failed.add(base + d)
    base += st["oracle_max_d"] + 1
    for degree in range(st["census_max_degree"] + 1):
        res = p.results[base + degree]
        want = {"total": inputs.catalan(degree),
                "maximal": rec["motzkin"][degree] if "motzkin" in rec else None,
                "minimal": rec["min"][degree] if "min" in rec else None}
        if isinstance(res, Exception) or res != want:
            failed.add(base + degree)
    return failed


def layer_enumerate(st: dict, p: Pass, busy: dict) -> dict:
    out = {}
    for name in st["counts"]:
        for method in ("seq_by_recurrence", "seq_by_series"):
            key = f"sequences.{method}.{name}"
            out[f"{key}.busy_s"] = busy[key]
    tables = p.results[:2 * len(st["counts"])]
    out["sequences.interval_family.memo_entries"] = \
        len(st["sequences"].interval_memo_keys())
    out["sequences.values.bits"] = sum(
        v.bit_length() for t in tables if not isinstance(t, Exception) for v in t)
    out["oracle.oracle_poset_counts.busy_s"] = busy["oracle.oracle_poset_counts"]
    out["oracle.oracle_extremal_census.busy_s"] = \
        busy["oracle.oracle_extremal_census"]
    return out


WORKLOADS = {
    "transport": (prepare_transport, run_transport, check_transport,
                  layer_transport),
    "lattice": (prepare_lattice, run_lattice, check_lattice, layer_lattice),
    "enumerate": (prepare_enumerate, run_enumerate, check_enumerate,
                  layer_enumerate),
}


# ---------------------------------------------------------------------------


def probe() -> float:
    """Time of a fixed pure-Python task, in ms.  It does the kinds of work
    most of the package does (string surgery, hashing into a set, building
    nested tuples) but runs none of its code, so a slow reading means a slow
    host, not a slow program."""
    t0 = clock()
    seen = set()
    s = "w(w(w(w)))"
    for i in range(3000):
        j = i % len(s)
        t = s[:j] + "b" + s[j + 1:]
        seen.add(t)
        seen.add((t, i & 15))
    for _ in range(8):
        _nest(14)
    return (clock() - t0) * 1000.0


_BITSETS = [random.Random(i).getrandbits(1806) for i in range(300)]
_BITSET_INDEX = {x: i for i, x in enumerate(_BITSETS)}


def probe_bits() -> float:
    """Time of a fixed big-integer bitset task, in ms: intersections looked
    up in a dict, the inner step of the lattice check in
    ``posets.poset_analysis``.  Under a busy host it slows far less than
    ``probe`` does, as poset_analysis does."""
    t0 = clock()
    hits = 0
    for a in range(300):
        x = _BITSETS[a]
        for b in range(a + 1, a + 30):
            hits += (x & _BITSETS[b % 300]) in _BITSET_INDEX
    return (clock() - t0) * 1000.0


def probe_point() -> dict[str, float]:
    """Median of three readings of each probe, so that one preempted
    reading does not skew the jobs around it."""
    return {"python": statistics.median(probe() for _ in range(3)),
            "bits": statistics.median(probe_bits() for _ in range(3))}


def _nest(n: int) -> tuple:
    return (n, _nest(n - 1), _nest(n - 2)) if n > 1 else (n,)


def main(argv: list[str]) -> int:
    workload, seed, size, trace, spawned_at, out_dir = argv
    seed, trace, spawned_at = int(seed), trace == "1", float(spawned_at)
    out_dir = Path(out_dir)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mockingbird

    if Path(mockingbird.__file__).resolve().parent != src / "mockingbird":
        print(f"imported mockingbird from {mockingbird.__file__}, not {src}",
              file=sys.stderr)
        return 2
    prepare, run, check, layers = WORKLOADS[workload]
    st = prepare(seed, inputs.SIZES[size][workload])
    gc.collect()
    setup_s = time.monotonic() - spawned_at

    tr = Tracer() if trace else NullTracer()
    rss0 = maxrss_mb()
    p = run(st, tr)
    rss1 = maxrss_mb()
    p.finish()
    factors = p.factors()
    adjusted = [t * f for t, f in zip(p.times, factors)]

    t0 = clock()
    failed = check(st, p)
    check_s = p.check_s + clock() - t0

    errors = [f"job {i}: {''.join(traceback.format_exception_only(r)).strip()}"
              for i, r in enumerate(p.results) if isinstance(r, Exception)]
    probes = {kind: [point[kind] for _, point in p.probes]
              for kind in REF_PROBE_MS}
    first, last = probes["python"][0], probes["python"][-1]
    summary = {
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "setup_s": setup_s * REF_PROBE_MS["python"] / first,
        "wall_s": sum(adjusted),
        "peak_rss_mb": rss1,
        "job_times": adjusted, "timed": p.timed,
        "attempted": len(p.results), "failed": len(failed),
        "errors": errors[:5],
        "raw": {"setup_s": setup_s, "wall_s": sum(p.times)},
        "probe_ms": {kind: {"count": len(ms), "median": statistics.median(ms),
                            "min": min(ms), "max": max(ms)}
                     for kind, ms in probes.items()},
    }
    if trace:
        by_span = dict(zip(p.spans, factors))
        layer = layers(st, p, tr.busy(by_span))
        layer["bench.check.busy_s"] = check_s * REF_PROBE_MS["python"] / last
        if workload == "transport":
            layer["bridge.verify_fr_isomorphism.rss_growth_mb"] = rss1 - rss0
        summary["layers"] = layer
        out_dir.mkdir(parents=True, exist_ok=True)
        tr.write(out_dir / f"spans-{workload}-{seed}.json")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
