"""Additional report-rendering edge cases."""

from repro.eval import EvalResult, histogram_text, metrics_csv, series_table


class TestSeriesTable:
    def test_mixed_types(self):
        text = series_table(
            [("DowBJ", 1, 2.5), ("SubBJ", 3, 4.25)],
            headers=["dataset", "n", "value"],
        )
        assert "DowBJ" in text
        assert "4.25" in text

    def test_title_optional(self):
        untitled = series_table([(1.0,)], headers=["x"])
        titled = series_table([(1.0,)], headers=["x"], title="T")
        assert len(titled.splitlines()) == len(untitled.splitlines()) + 1


class TestHistogramText:
    def test_zero_count_rows_have_no_bar(self):
        text = histogram_text({1: 0, 2: 10})
        line_for_one = next(ln for ln in text.splitlines() if ln.strip().startswith("1"))
        assert "#" not in line_for_one

    def test_sorted_by_key(self):
        text = histogram_text({3: 1, 1: 1, 2: 1})
        keys = [line.split()[0] for line in text.splitlines()]
        assert keys == ["1", "2", "3"]


class TestMetricsCSVOrder:
    def test_respects_order(self):
        results = {
            "A": EvalResult(1.0, 1.0, 1.0, 1),
            "B": EvalResult(2.0, 2.0, 2.0, 1),
        }
        csv = metrics_csv(results, order=["B", "A"])
        rows = [line.split(",")[0] for line in csv.splitlines()[1:]]
        assert rows == ["B", "A"]
