import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mockingbird
from mockingbird import oracle, rewrite
from mockingbird.cli import export_graph, main
from mockingbird.posets import IncompleteExplorationError, poset_analysis
from mockingbird.rewrite import explore_component, load_system
from mockingbird.terms import parse_term
from tests_util import forbid_sequence_solvers

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


class TestReduceCheckFr:
    def test_reduce_reaches_normal_form(self, capsys):
        code, out, _ = run(capsys, "reduce", "M(MM)")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "M(MM)"
        assert lines[-1] == "MM(MM)"

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
        # budget 10 truncates the exploration, and the probe's upset walks
        # inherit that cap, so the verdict rests on which nodes a walk
        # keeps, i.e. on the order in which it follows the redexes
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

    def test_check_probe_budget_is_exploration_size(self, capsys,
                                                    monkeypatch):
        budgets = []
        probe = rewrite.local_confluence_probe

        def recording_probe(system, t, join_budget):
            budgets.append(join_budget)
            return probe(system, t, join_budget)

        monkeypatch.setattr(rewrite, "local_confluence_probe",
                            recording_probe)
        _, out, _ = run(capsys, "check", "M(M(M(MM)))")
        rows = dict(line.rsplit(maxsplit=1) for line in out.splitlines())
        assert rows["complete"] == "True"
        assert budgets == [int(rows["nodes"])] == [42]
        run(capsys, "check", "--budget", "10", "M(M(M(MM)))")
        assert budgets[1:] == [10]

    def test_check_ks(self, capsys):
        code, out, _ = run(capsys, "check", "S(KKS)K(SS)", "--system",
                           "builtin:KS", "--budget", "5000")
        assert "hierarchical[K]" in out
        assert "hierarchical[S]" in out


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
    # the term printer recurses over these beyond the interpreter's limit,
    # so graph, check and reduce refuse them before exploring; the parser,
    # the rewrite step, fr and the forest printer do not recurse
    LEFT_SPINE = "M" * 5000
    NESTED = "M(" * 3000 + "M" + ")" * 3000

    @pytest.mark.parametrize("argv", [
        ("check", LEFT_SPINE),
        ("graph", NESTED),
        ("reduce", LEFT_SPINE),
        ("reduce", NESTED),
        ("check", NESTED),
        ("graph", LEFT_SPINE),
    ], ids=["check", "graph", "reduce-left-spine", "reduce-nested",
            "check-nested", "graph-left-spine"])
    def test_exit_2_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: term nested too deeply\n"

    def test_fr_answers(self, capsys):
        code, out, err = run(capsys, "fr", self.NESTED)
        assert code == 0
        assert out == "w(" * 2998 + "w" + ")" * 2998 + "\n"
        assert err == ""


def test_closed_output_pipe_exits_141():
    # the reader is gone before the child writes: a shell reports 141
    # (128 + SIGPIPE) for such a writer, and nothing goes to stderr
    src = str(Path(mockingbird.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mockingbird.cli", "oracle", "3"],
            env=dict(os.environ, PYTHONPATH=src), stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


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
