import pytest

from mockingbird import oracle, sequences
from mockingbird.sequences import (
    GOLDEN_PREFIXES,
    LADDER_COUNT_LIMITS,
    METHODS,
    SEQUENCE_NAMES,
    SequenceError,
    compare,
    crosscheck_all,
    interval_family,
    load_bfile,
    seq_by_oracle,
    seq_by_recurrence,
    seq_by_series,
)
from tests_util import (
    classes_by_height_full,
    forbid_sequence_solvers,
    interval_family_recursive,
    min_by_degree_full,
    motzkin_by_degree_full,
)


def record_interval_tables(monkeypatch):
    """The (order, rows) of every interval table built, in call order."""
    tables = []
    levels = sequences.serieslib.interval_levels

    def recording(order, start):
        rows = levels(order, start)
        tables.append((order, rows))
        return rows

    monkeypatch.setattr(sequences.serieslib, "interval_levels", recording)
    return tables


class TestRecurrence:
    def test_golden_prefixes(self):
        for name, golden in GOLDEN_PREFIXES.items():
            assert seq_by_recurrence(name, 8).values == golden

    def test_ladder_indexing_drops_the_duplicate(self):
        assert seq_by_recurrence("sizes", 5, indexing="ladder").values == \
            [1, 2, 6, 42, 1806]
        assert seq_by_recurrence("edges", 5, indexing="ladder").values == \
            [0, 1, 7, 97, 8287]

    def test_census_sequences_index_identically(self):
        for name in ("motzkin", "min", "classes"):
            assert seq_by_recurrence(name, 8, indexing="ladder").values == \
                seq_by_recurrence(name, 8).values

    def test_unknown_name(self):
        with pytest.raises(SequenceError):
            seq_by_recurrence("catalan", 5)

    def test_count_validation(self):
        with pytest.raises(SequenceError):
            seq_by_recurrence("sizes", 0)

    def test_squaring_recurrences_equal_the_full_products(self):
        for name, count, reference in (("motzkin", 400, motzkin_by_degree_full),
                                       ("min", 400, min_by_degree_full),
                                       ("classes", 22, classes_by_height_full)):
            assert seq_by_recurrence(name, count).values == reference(count), name

    def test_monotone_guards(self):
        sizes = seq_by_recurrence("sizes", 12).values
        edges = seq_by_recurrence("edges", 12).values
        intervals = seq_by_recurrence("intervals", 12).values
        assert all(a < b for a, b in zip(sizes[1:], sizes[2:]))
        assert all(a < b for a, b in zip(edges[2:], edges[3:]))
        assert all(a < b for a, b in zip(intervals[1:], intervals[2:]))


class TestSeriesAgreement:
    def test_recurrence_vs_series_to_12(self):
        for name in SEQUENCE_NAMES:
            rec = seq_by_recurrence(name, 13).values
            ser = seq_by_series(name, 13).values
            assert rec == ser, name


class TestLadderCount:
    def test_recurrence_skips_the_dropped_level(self, monkeypatch):
        # conventional count n needs ladder depths 0..n-2 only
        tables = record_interval_tables(monkeypatch)
        for n in (2, 5, 9):
            seq_by_recurrence("intervals", n)
        assert [order for order, _ in tables] == [0, 3, 7]
        assert [len(rows) for _, rows in tables] == [1, 4, 8]

    def test_short_counts(self):
        for name in SEQUENCE_NAMES:
            for indexing in ("mockingbird", "ladder"):
                for count in (1, 2, 3):
                    rec = seq_by_recurrence(name, count, indexing=indexing)
                    ser = seq_by_series(name, count, indexing=indexing)
                    assert rec.values == ser.values, (name, indexing, count)
                    assert len(rec.values) == count, (name, indexing, count)

    def test_unknown_indexing(self):
        for method in (seq_by_recurrence, seq_by_series):
            with pytest.raises(SequenceError):
                method("sizes", 3, indexing="oeis")


class TestRunawayCounts:
    def test_refused_before_computing(self):
        for method, intervals in ((seq_by_recurrence, 16),
                                  (seq_by_series, 17)):
            for name, count in (("sizes", 40), ("edges", 64),
                                ("classes", 30), ("intervals", intervals)):
                with pytest.raises(SequenceError,
                                   match=f"^{name} by .* is limited to count"):
                    method(name, count)

    def test_admits_the_counts_in_use(self):
        # tests, `crosscheck --max-d 13` and the benchmark
        for name, count in (("sizes", 22), ("edges", 20), ("classes", 20),
                            ("intervals", 14), ("motzkin", 150),
                            ("min", 150)):
            for method in ("recurrence", "series"):
                sequences._ladder_count(name, count, "mockingbird", method)

    def test_series_census_refused_above_limit(self):
        for name, count in (("motzkin", 2501), ("min", 2201)):
            with pytest.raises(SequenceError, match="--method recurrence"):
                seq_by_series(name, count)

    def test_census_admitted_by_recurrence_and_small_series(self):
        for name in ("motzkin", "min"):
            assert len(seq_by_recurrence(name, 600).values) == 600
            assert seq_by_series(name, 150).values == \
                seq_by_recurrence(name, 150).values

    def test_census_by_series_at_the_old_limit(self):
        # 512 was the series limit while the fixpoint was cubic
        for name in ("motzkin", "min"):
            assert seq_by_series(name, 512).values == \
                seq_by_recurrence(name, 512).values


class TestAdmissionRule:
    def test_one_past_each_limit_refused_before_any_solver(self, monkeypatch):
        forbid_sequence_solvers(monkeypatch)
        for method, limits in LADDER_COUNT_LIMITS.items():
            for name, limit in limits.items():
                for indexing in ("mockingbird", "ladder"):
                    prepended = (indexing == "mockingbird"
                                 and name in ("sizes", "edges", "intervals"))
                    top = limit + int(prepended)
                    assert sequences._ladder_count(
                        name, top, indexing, method) == limit
                    with pytest.raises(
                            SequenceError,
                            match=f"^{name} by {method} is limited to count "
                                  f"{top}, got {top + 1}"):
                        METHODS[method](name, top + 1, indexing=indexing)

    def test_classes_has_no_oracle(self, monkeypatch):
        forbid_sequence_solvers(monkeypatch)
        assert "classes" not in LADDER_COUNT_LIMITS["oracle"]
        with pytest.raises(SequenceError,
                           match="^no oracle for sequence 'classes'$"):
            seq_by_oracle("classes", 1)

    def test_refusal_names_the_methods_that_admit_the_count(self, monkeypatch):
        forbid_sequence_solvers(monkeypatch)
        for method, name, count, message in (
            (seq_by_recurrence, "intervals", 15,
             "intervals by recurrence is limited to count 14, got 15; "
             "--method series admits it"),
            (seq_by_oracle, "sizes", 8,
             "sizes by oracle is limited to count 7, got 8; "
             "--method recurrence or series admits it"),
            (seq_by_series, "min", 2201,
             "min by series is limited to count 2200, got 2201; "
             "--method recurrence admits it"),
            (seq_by_recurrence, "motzkin", 100_000,
             "motzkin by recurrence is limited to count 3200, got 100000"),
            (seq_by_series, "sizes", 40,
             "sizes by series is limited to count 26, got 40"),
        ):
            with pytest.raises(SequenceError) as exc:
                method(name, count)
            assert str(exc.value) == message

    def test_oracle_limits_are_the_oracle_constants(self):
        assert LADDER_COUNT_LIMITS["oracle"] == {
            "sizes": oracle.MAX_STREAM_D + 1,
            "edges": oracle.MAX_STREAM_D + 1,
            "intervals": oracle.MAX_EXACT_D + 1,
            "motzkin": oracle.MAX_CENSUS_DEGREE + 1,
            "min": oracle.MAX_CENSUS_DEGREE + 1,
        }

    def test_methods_by_name(self):
        assert METHODS == {"recurrence": seq_by_recurrence,
                           "series": seq_by_series, "oracle": seq_by_oracle}
        assert set(LADDER_COUNT_LIMITS) == set(METHODS)
        for limits in LADDER_COUNT_LIMITS.values():
            assert set(limits) <= set(SEQUENCE_NAMES)


class TestIntervalFamily:
    def test_base_cases(self):
        for k in (1, 2, 5, 30):
            assert interval_family(k, 0) == 1

    def test_known_values(self):
        assert interval_family(1, 3) == 371
        assert interval_family(2, 1) == 5

    def test_validation(self):
        with pytest.raises(SequenceError):
            interval_family(0, 1)
        with pytest.raises(SequenceError):
            interval_family(1, -1)

    def test_demand_bound(self, monkeypatch):
        tables = record_interval_tables(monkeypatch)
        d = 7
        interval_family(1, d)
        [(order, rows)] = tables
        assert order == d
        assert [len(row) for row in rows] == [1 << (d - dprime)
                                              for dprime in range(d + 1)]

    def test_matches_the_recursive_rule(self):
        memo = {}
        for d in range(9):
            for k in range(1, (1 << (8 - d)) + 1):
                assert interval_family(k, d) == \
                    interval_family_recursive(k, d, memo), (k, d)


class TestOracleMethod:
    def test_sizes_small(self):
        assert seq_by_oracle("sizes", 5).values == [1, 1, 2, 6, 42]

    def test_edges_small(self):
        assert seq_by_oracle("edges", 5).values == [0, 0, 1, 7, 97]

    def test_intervals_small(self):
        assert seq_by_oracle("intervals", 5).values == [1, 1, 3, 17, 371]

    def test_census_small(self):
        assert seq_by_oracle("motzkin", 6).values == [1, 1, 1, 2, 4, 9]
        assert seq_by_oracle("min", 6).values == [1, 1, 2, 4, 12, 34]

    def test_no_oracle_for_classes(self):
        with pytest.raises(SequenceError):
            seq_by_oracle("classes", 3)


class TestBfile:
    def test_match(self, tmp_path):
        path = tmp_path / "b007018.txt"
        path.write_text("# prefix\n0 1\n1 1\n2 2\n3 6\n")
        table = load_bfile(str(path))
        report = compare(table, seq_by_recurrence("sizes", 4))
        assert report.ok
        assert report.overlap == 4

    def test_mismatch_index(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 1\n2 2\n3 7\n")
        report = compare(load_bfile(str(path)), seq_by_recurrence("sizes", 4))
        assert not report.ok
        assert report.first_mismatch == 3

    def test_non_contiguous(self, tmp_path):
        path = tmp_path / "gap.txt"
        path.write_text("0 1\n2 2\n")
        with pytest.raises(SequenceError):
            load_bfile(str(path))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("0 1 extra\n")
        with pytest.raises(SequenceError):
            load_bfile(str(path))

    def test_empty_overlap_warns(self):
        a = seq_by_recurrence("sizes", 3)
        b = seq_by_recurrence("sizes", 3)
        b = type(b)(name=b.name, values=[], indexing=b.indexing,
                    method=b.method)
        report = compare(a, b)
        assert report.ok
        assert report.warning == "empty overlap"

    def test_json_dict_uses_decimal_strings(self):
        table = seq_by_recurrence("intervals", 8)
        payload = table.to_json_dict()
        assert payload["values"][-1] == "438176621806663544657"

    def test_json_dict_past_the_digit_limit(self):
        # the last value has more than the interpreter's 4,300 digits
        table = seq_by_recurrence("sizes", 17)
        value, text = table.values[-1], table.to_json_dict()["values"][-1]
        digits = len(text)
        assert digits > 4300
        assert 10 ** (digits - 1) <= value < 10 ** digits
        assert int(text[:18]) == value // 10 ** (digits - 18)
        assert int(text[-18:]) == value % 10 ** 18

    def test_entry_past_the_digit_limit(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("0 1\n1 " + "7" * 5000 + "\n")
        assert load_bfile(str(path)).values == [1, 7 * (10 ** 5000 - 1) // 9]

    @pytest.mark.parametrize("field", [
        "7" * 5000 + "x", "7" * 2500 + "." + "7" * 2500, "1e5000", "NaN",
        "1_000", "\u0663"])
    def test_non_integer_field(self, tmp_path, field):
        path = tmp_path / "bad.txt"
        path.write_text(f"0 1\n1 {field}\n")
        with pytest.raises(SequenceError, match="non-integer field"):
            load_bfile(str(path))


class TestCrosscheck:
    def test_full_report_passes(self):
        report = crosscheck_all(max_d=12)
        assert report.ok, [v for v in report.verdicts if not v[1]]

    def test_report_structure(self):
        report = crosscheck_all(max_d=7)
        payload = report.to_json_dict()
        assert payload["ok"] is True
        labels = [c["label"] for c in payload["checks"]]
        assert any("golden prefix" in label for label in labels)
        assert any("oracle ladder d=4" in label for label in labels)
        assert any("census degree 10" in label for label in labels)
        assert any("upset-size moments" in label for label in labels)
