import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mockingbird
from mockingbird import oracle, posets, rewrite
from mockingbird.bridge import verify_fr_isomorphism
from mockingbird.cli import LATTICE_CHECK_NODES, export_graph, main
from mockingbird.posets import ExplorationError, IncompleteExplorationError, poset_analysis
from mockingbird.rewrite import explore_component, load_system
from mockingbird.sequences import METHODS, SEQUENCE_NAMES
from mockingbird.terms import parse_term
from tests_util import FUZZ_PIECES, forbid_sequence_solvers, right_comb

SYS_M = load_system("builtin:M")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_intervals_prefix(self, capsys):
        code, out, _ = run(capsys, "enumerate", "intervals", "--count", "8")
        assert code == 0
        assert out.strip() == \
            "[1,1,3,17,371,144513,20932611523,438176621806663544657]"

    def test_series_method_agrees(self, capsys):
        code, out1, _ = run(capsys, "enumerate", "classes", "--count", "8")
        code2, out2, _ = run(capsys, "enumerate", "classes", "--count", "8",
                             "--method", "series")
        assert code == code2 == 0
        assert out1 == out2

    def test_json_mode_decimal_strings(self, capsys):
        code, out, _ = run(capsys, "enumerate", "sizes", "--count", "8",
                           "--json")
        payload = json.loads(out)
        assert payload["values"][-1] == "10650056950806"
        assert payload["indexing"] == "mockingbird"

    def test_unknown_sequence_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "enumerate", "fibonacci")
        assert exc.value.code == 2

    def test_determinism(self, capsys):
        outs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "enumerate", "min", "--count", "8",
                            "--json")
            outs.add(out)
        assert len(outs) == 1


class TestGraph:
    def test_fig_json(self, capsys):
        code, out, _ = run(capsys, "graph", "M(M(MM))", "--system",
                           "builtin:M", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["nodes"]) == 6
        nonloop = [e for e in payload["step_edges"] if e[0] != e[1]]
        loops = [e for e in payload["step_edges"] if e[0] == e[1]]
        assert len(nonloop) == 7
        assert len(loops) == 6
        assert payload["flags"]["is_lattice"] is True

    def test_hasse_dot(self, capsys):
        code, out, _ = run(capsys, "graph", "M(M(MM))", "--hasse",
                           "--format", "dot")
        assert code == 0
        assert out.count("->") == 7
        assert "digraph" in out

    def test_full_dot_has_loops(self, capsys):
        code, out, _ = run(capsys, "graph", "M(M(MM))", "--format", "dot")
        assert code == 0
        assert out.count("->") == 13

    def test_bad_term_is_input_error(self, capsys):
        code, out, err = run(capsys, "graph", "M(", "--format", "json")
        assert code == 2
        assert out == ""
        assert "error" in err


class TestSystemArgument:
    # text with ":=" is a system, builtin:NAME a built-in, else a path
    def test_rules_as_text(self, capsys):
        expected = run(capsys, "graph", "M(M(MM))")
        assert run(capsys, "graph", "M(M(MM))", "--system",
                   "M 1 := x1 x1") == expected

    def test_rules_from_a_file(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# the Mockingbird\nM 1 := x1 x1\n")
        expected = run(capsys, "graph", "M(M(MM))")
        assert run(capsys, "graph", "M(M(MM))", "--system",
                   str(path)) == expected

    def test_missing_path_is_named(self, capsys, tmp_path):
        path = tmp_path / "missing.txt"
        code, out, err = run(capsys, "graph", "M", "--system", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: [Errno 2] No such file or directory: " \
                      f"{str(path)!r}\n"

    def test_unknown_builtin_lists_the_known_names(self, capsys):
        code, out, err = run(capsys, "graph", "M", "--system", "builtin:Q")
        assert code == 2
        assert out == ""
        assert err == ("error: unknown system 'builtin:Q'; the built-in "
                       "systems are builtin:M, builtin:I, builtin:K, "
                       "builtin:S, builtin:KS\n")

    def test_high_order_answers_at_once(self, capsys):
        # the rule's order costs nothing until the rule fires
        order = (rewrite.MAX_STEP_SIZE - 1) // 2
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "KKKx1x2x3x4", "--system",
                             f"K {order} := x1")
        assert time.perf_counter() - start < 5
        assert (code, err) == (0, "")
        assert "nodes                    1\n" in out

    @pytest.mark.parametrize("order", [(rewrite.MAX_STEP_SIZE + 1) // 2,
                                       2**32], ids=["bound", "2^32"])
    def test_order_past_the_least_redex_bound(self, capsys, order):
        # a redex of order n has 2n + 1 symbols at least, so no step that
        # could fire the rule would pass the step-size refusal
        start = time.perf_counter()
        code, out, err = run(capsys, "graph", "K", "--system",
                             f"# K\nK {order} := x1")
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert err == (f"error: line 2: order {order} too large: a redex has "
                       f"{2 * order + 1} symbols > {rewrite.MAX_STEP_SIZE}\n")


class TestReduceCheckFr:
    def test_reduce_reaches_normal_form(self, capsys):
        code, out, _ = run(capsys, "reduce", "M(MM)")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "M(MM)"
        assert lines[-1] == "MM(MM)"

    @pytest.mark.parametrize("max_steps, lines, err", [
        ("0", ["M(MM)"], "... step limit reached\n"),
        ("1", ["M(MM)", "MM(MM)"], ""),
    ], ids=["cut", "normal-form"])
    def test_reduce_step_limit_only_before_a_further_term(
            self, capsys, max_steps, lines, err):
        code, out, got_err = run(capsys, "reduce", "M(MM)", "--max-steps",
                                 max_steps)
        assert (code, out.splitlines(), got_err) == (0, lines, err)

    def test_reduce_refuses_negative_max_steps(self, capsys):
        code, out, err = run(capsys, "reduce", "M", "--max-steps", "-5")
        assert (code, out) == (2, "")
        assert err == "error: --max-steps must be >= 0, got -5\n"

    def test_fr(self, capsys):
        code, out, _ = run(capsys, "fr", "M(M(MM))")
        assert code == 0
        assert out.strip() == "w(w)"

    def test_check_verdicts(self, capsys):
        code, out, _ = run(capsys, "check", "M(M(MM))")
        assert code == 0
        rows = {}
        for line in out.strip().splitlines():
            name, value = line.rsplit(maxsplit=1)
            rows[name.strip()] = value
        assert rows["acyclic"] == "True"
        assert rows["lattice"] == "True"
        assert rows["rooted (unique minimal)"] == "True"
        assert rows["hierarchical[M]"] == "True"
        assert rows["confluence joinable"] == "True"

    def test_check_verdict_independent_of_hash_seed(self):
        # budget 10 truncates the exploration, and the probe reads its
        # joins off that truncated walk, so the verdict rests on which nodes
        # the walk keeps, i.e. on the order in which it follows the redexes
        src = str(Path(mockingbird.__file__).resolve().parents[1])
        runs = []
        for seed in ("1", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "mockingbird.cli", "check",
                 "--budget", "10", "M(M(M(MM)))"],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 1
            assert "confluence joinable  False" in proc.stdout
            runs.append(proc.stdout)
        assert runs[0] == runs[1]

    def test_check_walks_once(self, capsys, monkeypatch):
        # the probe reads its joins off the upset walked for the verdicts,
        # and off its reachability table when the analysis made one
        calls = []

        def counting(name, function):
            def counted(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return counted

        monkeypatch.setattr(rewrite, "explore",
                            counting("explore", rewrite.explore))
        reach = counting("reachability", posets.reachability)
        monkeypatch.setattr(posets, "reachability", reach)
        monkeypatch.setattr(rewrite, "reachability", reach)
        for argv, expected in ((["M(M(M(MM)))"], 0),
                               (["--budget", "10", "M(M(M(MM)))"], 1)):
            calls.clear()
            code, out, _ = run(capsys, "check", *argv)
            assert code == expected
            assert re.search(r"^confluence pairs +3$", out, re.M)
            assert sorted(calls) == ["explore", "reachability"]

    def test_check_ks(self, capsys):
        code, out, _ = run(capsys, "check", "S(KKS)K(SS)", "--system",
                           "builtin:KS", "--budget", "5000")
        assert "hierarchical[K]" in out
        assert "hierarchical[S]" in out

    def test_large_upset_skips_the_lattice_check(self, capsys):
        # a complete upset past LATTICE_CHECK_NODES is analysed, but its
        # lattice property is not decided
        term = "M(M(M(M(MM))))(M(MM))"
        code, out, err = run(capsys, "check", term)
        assert (code, err) == (0, "")
        assert re.search(r"^nodes +3612$", out, re.M)
        assert re.search(r"^lattice +skipped \(too large\)$", out, re.M)
        code, out, err = run(capsys, "graph", term)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert len(payload["nodes"]) == 3612 > LATTICE_CHECK_NODES
        assert payload["flags"]["is_lattice"] is None


class TestOracleCommand:
    def test_d3(self, capsys):
        code, out, _ = run(capsys, "oracle", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["elements"] == "42"
        assert payload["hasse_edges"] == "97"
        assert payload["intervals"] == "371"
        assert payload["cover_equals_step"] is True

    def test_no_intervals(self, capsys, monkeypatch):
        # d = 5 streams its counts and has no intervals; a stub stands in
        # for the minutes-long stream
        monkeypatch.setattr(oracle, "_ladder_stream_counts",
                            lambda d: (3263442, 29942737))
        counts = oracle.oracle_poset_counts(5)
        assert counts.intervals is None
        assert counts.cover_equals_step is None
        code, out, _ = run(capsys, "oracle", "5")
        assert code == 0
        assert '"intervals": null' in out


class TestCrosscheckCompare:
    def test_crosscheck_passes(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "--max-d", "8")
        assert code == 0
        assert "FAIL" not in out

    def test_crosscheck_refuses_past_its_limit(self, capsys):
        # both methods admit every sequence up to max_d 13; past it the
        # refusal names that limit, and no --method, which crosscheck lacks
        code, out, err = run(capsys, "crosscheck", "--max-d", "14")
        assert (code, out, err) == (
            2, "", "error: max_d must be at most 13, got 14\n")

    def test_compare_match(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 1\n1 1\n2 2\n3 6\n4 42\n")
        code, out, _ = run(capsys, "compare", str(path), "sizes")
        assert code == 0
        assert "match" in out

    def test_compare_mismatch_exits_1(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 1\n1 1\n2 3\n")
        code, out, _ = run(capsys, "compare", str(path), "sizes")
        assert code == 1
        assert "mismatch at index 2" in out

    def test_compare_refuses_bfile_not_from_index_0(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1 1\n2 2\n3 6\n4 42\n")
        code, out, err = run(capsys, "compare", str(path), "sizes")
        assert (code, out) == (2, "")
        assert err == f"error: {path}:1: first index 1 (expected 0)\n"


class TestRunawayCounts:
    def test_enumerate_refuses_doubly_exponential_count(self, capsys):
        for method in ("recurrence", "series"):
            code, out, err = run(capsys, "enumerate", "sizes", "--count",
                                 "40", "--method", method)
            assert code == 2
            assert out == ""
            assert err == (f"error: sizes by {method} is limited to count "
                           "26, got 40\n")

    def test_enumerate_refuses_long_census_by_series(self, capsys):
        for name, count in (("motzkin", "2501"), ("min", "2201")):
            code, out, err = run(capsys, "enumerate", name, "--count", count,
                                 "--method", "series")
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: {name} by series is limited")
            assert "--method recurrence" in err
            assert err.count("\n") == 1

    def test_compare_refuses_long_bfile(self, capsys, tmp_path):
        # the b-file's length sets the count (default --count 64)
        path = tmp_path / "b.txt"
        path.write_text("".join(f"{n} {n}\n" for n in range(64)))
        code, out, err = run(capsys, "compare", str(path), "sizes")
        assert code == 2
        assert out == ""
        assert err == \
            "error: sizes by recurrence is limited to count 26, got 64\n"

    @pytest.mark.parametrize("argv, message", [
        (("motzkin", "--count", "100000"),
         "motzkin by recurrence is limited to count 3200, got 100000"),
        (("sizes", "--method", "oracle", "--count", "8"),
         "sizes by oracle is limited to count 7, got 8; "
         "--method recurrence or series admits it"),
    ], ids=["motzkin-recurrence", "sizes-oracle"])
    def test_enumerate_refused_before_any_solver(self, capsys, monkeypatch,
                                                 argv, message):
        forbid_sequence_solvers(monkeypatch)
        code, out, err = run(capsys, "enumerate", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_enumerate_intervals_16_by_series(self, capsys):
        # its last values pass the interpreter's 4,300-digit limit on
        # int-to-str conversion, which the CLI prints past without lifting
        digits_limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "enumerate", "intervals", "--count",
                             "16", "--method", "series")
        assert code == 0
        assert err == ""
        values = out.strip()[1:-1].split(",")
        assert len(values) == 16
        assert max(len(v) for v in values) > 4300
        _, recurrence, _ = run(capsys, "enumerate", "intervals", "--count",
                               "14")
        assert values[:14] == recurrence.strip()[1:-1].split(",")
        assert sys.get_int_max_str_digits() == digits_limit


class TestDeepTerms:
    # the parser, the printer, the rewrite step, fr and the forest printer
    # do not recurse, so depth alone is no reason to refuse a term; a step
    # too large for a walk to end is (rewrite.MAX_STEP_SIZE)
    LEFT_SPINE = "M" * 5000
    NESTED = "M(" * 3000 + "M" + ")" * 3000
    CHECK_ROWS = [
        ("complete", "True"), ("nodes", "1"), ("acyclic", "True"),
        ("rooted (unique minimal)", "True"), ("unique maximal", "True"),
        ("lattice", "True"), ("hierarchical[M]", "True"),
        ("confluence pairs", "0"), ("confluence joinable", "True"),
    ]

    @pytest.mark.parametrize("command", ["check", "graph", "reduce"])
    def test_left_spine_answers(self, capsys, command):
        # M M -> M M at the bottom of the spine: one node with a self-loop
        code, out, err = run(capsys, command, self.LEFT_SPINE)
        assert code == 0
        assert err == ""
        if command == "check":
            assert out == "".join(f"{name:<23}  {value}\n"
                                  for name, value in self.CHECK_ROWS)
        elif command == "graph":
            assert json.loads(out) == {
                "flags": {"is_acyclic": True, "is_complete": True,
                          "is_lattice": True},
                "hasse_edges": [], "maximal": [0], "minimal": [0],
                "nodes": [self.LEFT_SPINE], "step_edges": [[0, 0]],
            }
        else:
            assert out == self.LEFT_SPINE + "\n"

    @pytest.mark.parametrize("command", ["graph", "reduce", "check"],
                             ids=["graph", "reduce-nested", "check-nested"])
    def test_exit_2_with_one_line(self, capsys, command):
        start = time.perf_counter()
        code, out, err = run(capsys, command, self.NESTED)
        assert time.perf_counter() - start < 5
        assert code == 2
        # reduce prints the start term before its first step
        printed = "M(" * 2999 + "MM" + ")" * 2999 + "\n"
        assert out == (printed if command == "reduce" else "")
        assert err == ("error: term too large to step: 3000 redexes x 6001 "
                       f"symbols > {rewrite.MAX_STEP_SIZE}\n")

    def test_fr_answers(self, capsys):
        code, out, err = run(capsys, "fr", self.NESTED)
        assert code == 0
        assert out == "w(" * 2998 + "w" + ")" * 2998 + "\n"
        assert err == ""

    def test_transport_and_check_share_the_refusal(self, capsys):
        # the fr-transport's side step and the rewrite step refuse with one
        # message, naming the key that each was handed
        refusal = (r"term too large to step: \d+ redexes x \d+ symbols > "
                   f"{rewrite.MAX_STEP_SIZE}")
        with pytest.raises(ExplorationError) as exc:
            verify_fr_isomorphism(right_comb(3000))
        assert re.fullmatch(refusal, str(exc.value))
        code, out, err = run(capsys, "check", self.NESTED)
        assert (code, out) == (2, "")
        assert re.fullmatch(f"error: {refusal}\n", err)


def test_rewrite_and_oracle_load_without_bridge():
    # the prefix keys live in terms and the step in rewrite, so neither
    # rewrite nor oracle needs the fr bridge
    src = str(Path(mockingbird.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mockingbird.rewrite, "
         "mockingbird.oracle; print(sorted(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120, check=True)
    assert "'mockingbird.rewrite'" in proc.stdout
    assert "'mockingbird.oracle'" in proc.stdout
    assert "'mockingbird.bridge'" not in proc.stdout


# random term text, left spines and right combs of any depth up to 5,000
CLI_TERMS = st.one_of(
    st.lists(st.sampled_from(FUZZ_PIECES), max_size=24).map("".join),
    st.integers(1, 5000).map(lambda n: "M" * n),
    st.integers(1, 5000).map(lambda n: "M(" * n + "M" + ")" * n))
# the built-ins, and orders that once cost seconds or memory to load
CLI_SYSTEMS = ["builtin:M", "builtin:KS", "builtin:I", "K 1000000 := x1",
               "K 10000000 := x1", "K 4294967296 := x1"]
# admitted counts that answer in milliseconds, and refused ones (past a
# limit of sequences.LADDER_COUNT_LIMITS, or below 1); no oracle count
# reaches the streaming depth 5, which takes minutes
CLI_COUNTS = ["-1", "0", "1", "2", "5", "12", "16", "27", "40", "3300",
              "100000"]
BFILE_JUNK = ["", "# note", "0", "0 1 2", "x 1", "1 1", "0 1.5", "0 -",
              "0 " + "9" * 5000, "\u0663 1"]


@st.composite
def bfile_bytes(draw):
    """A b-file of at most 16 values, maybe with one malformed line; or one
    too long for most sequences; or no valid UTF-8; or None for no file."""
    values = draw(st.lists(st.integers(-1, 50), max_size=16))
    lines = [f"{i} {v}" for i, v in enumerate(values)]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(BFILE_JUNK)))
    return draw(st.sampled_from([
        "".join(line + "\n" for line in lines).encode(),
        "".join(f"{n} {n}\n" for n in range(64)).encode(),
        b"0 1\n\xff\n", None]))


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["graph", "check", "reduce", "fr",
                                    "enumerate", "oracle", "crosscheck",
                                    "compare"]))
    if command == "oracle":
        return [command, draw(st.sampled_from(["-1", "0", "2", "4", "6"]))]
    if command == "crosscheck":
        argv = [command, "--max-d", str(draw(st.integers(-1, 4)))]
        return argv + ["--json"] * draw(st.booleans())
    if command in ("enumerate", "compare"):
        argv = [command, draw(st.sampled_from(SEQUENCE_NAMES)),
                "--indexing", draw(st.sampled_from(["mockingbird", "ladder"]))]
        if command == "compare":
            # bytes, or None, for the b-file written by the test
            return argv[:1] + [draw(bfile_bytes())] + argv[1:] + [
                "--method", draw(st.sampled_from(["recurrence", "series"])),
                "--count", draw(st.sampled_from(["-1", "0", "3", "64"]))]
        argv += ["--method", draw(st.sampled_from(list(METHODS))),
                 "--count", draw(st.sampled_from(CLI_COUNTS))]
        return argv + ["--json"] * draw(st.booleans())
    argv = [command, draw(CLI_TERMS)]
    if command == "fr":
        return argv
    argv += ["--system", draw(st.sampled_from(CLI_SYSTEMS))]
    if command == "reduce":
        return argv + ["--max-steps", "5"]
    argv += ["--budget", "50"]
    if command == "graph" and draw(st.booleans()):
        argv.append("--hasse")
    return argv


@settings(max_examples=500, deadline=None)
@given(cli_argv())
def test_cli_exit_codes(argv):
    # in-process, so an exception that escapes main fails the test
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "compare":
            path = Path(tmp, "b.txt")
            if argv[1] is not None:
                path.write_bytes(argv[1])
            argv = [argv[0], str(path), *argv[2:]]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    if err not in ("", "... step limit reached\n"):
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv", [["oracle", "3"],
                                  ["compare", "{bfile}", "sizes"],
                                  ["check", "M(M(MM))"]],
                         ids=["oracle", "compare", "check"])
def test_closed_output_pipe_exits_141(argv, tmp_path):
    # the reader is gone before the child writes: a shell reports 141
    # (128 + SIGPIPE) for such a writer, and nothing goes to stderr
    src = str(Path(mockingbird.__file__).resolve().parents[1])
    bfile = tmp_path / "b.txt"
    bfile.write_text("0 1\n1 1\n2 2\n3 6\n4 42\n")
    argv = [arg.format(bfile=bfile) for arg in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mockingbird.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src), stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_out_of_memory_exits_2_with_one_line():
    # the 75,852-node upset does not fit under a 150 MB address-space cap,
    # set on the child only
    src = str(Path(mockingbird.__file__).resolve().parents[1])
    cap = 150_000_000
    proc = subprocess.run(
        [sys.executable, "-m", "mockingbird.cli", "check",
         "M(M(M(M(MM))))(M(M(M(MM))))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: out of memory\n")


class TestExportGraph:
    def test_incomplete_rejected(self):
        g = explore_component(SYS_M, parse_term("M(M(M(MM)))", {"M"}),
                              "up", budget=5)
        with pytest.raises(IncompleteExplorationError):
            export_graph(g, "json")

    def test_singleton_dot(self):
        g = explore_component(SYS_M, parse_term("M", {"M"}), "up")
        poset_analysis(g)
        text = export_graph(g, "dot", hasse_only=True)
        assert text.count("->") == 0
        assert 'label="M"' in text
