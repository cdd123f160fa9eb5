"""CSV ingestion (typing, one-hot coding, row-level errors) and export."""

import numpy as np
import pytest

from rmstbayes.dataio import DataError, ingest_csv, write_csv
from rmstbayes.simulation import ScenarioConfig, generate_scenario


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_binary_covariate_gives_three_column_design(tmp_path):
    p = _write(tmp_path, "time,event,cluster,group,age\n"
                         "12.0,1,1,0,55\n9.5,0,1,1,61\n30.1,1,2,0,47\n")
    d = ingest_csv(p)
    assert d.q == 3 and d.column_names == ("intercept", "group", "age")
    assert np.allclose(d.x[:, 0], 1.0)
    assert list(d.x[:, 1]) == [0.0, 1.0, 0.0]
    assert d.n_clusters == 2


def test_three_level_categorical_becomes_two_dummies(tmp_path):
    p = _write(tmp_path, "time,event,cluster,group,place\n"
                         "5,1,1,0,urban\n6,1,1,1,rural\n7,0,1,0,coastal\n8,1,1,1,rural\n")
    d = ingest_csv(p)
    assert d.column_names == ("intercept", "group", "place=rural", "place=coastal")
    # first-seen level (urban) is the reference
    assert list(d.x[0, 2:]) == [0.0, 0.0]
    assert list(d.x[1, 2:]) == [1.0, 0.0]
    assert list(d.x[2, 2:]) == [0.0, 1.0]


def test_round_trip_reproduces_generated_dataset(tmp_path):
    d = generate_scenario(ScenarioConfig("C", n=64), 0)
    path = tmp_path / "scenario.csv"
    write_csv(d, path)
    back = ingest_csv(path)
    assert np.array_equal(back.time, d.time)
    assert np.array_equal(back.event, d.event)
    assert np.array_equal(back.cluster, d.cluster)
    assert np.array_equal(back.x, d.x)
    assert back.column_names == d.column_names


def test_row_level_errors_are_aggregated(tmp_path):
    p = _write(tmp_path, "time,event,cluster,group,age\n"
                         "-3,1,1,0,40\n10,2,1,0,41\nok,1,1,1,42\n5,1,1,0,43\n"
                         "inf,1,1,0,44\n6,1,1,1,nan\n7,1,1,1,-inf\n")
    with pytest.raises(DataError) as err:
        ingest_csv(p)
    msg = str(err.value)
    assert "row 2" in msg and "row 3" in msg and "row 4" in msg
    assert "row 5" not in msg
    assert "row 6: time" in msg
    assert "row 7: covariate 'age'" in msg and "row 8: covariate 'age'" in msg


def test_missing_required_column(tmp_path):
    p = _write(tmp_path, "time,event,group\n1,1,0\n")
    with pytest.raises(DataError, match="cluster"):
        ingest_csv(p)


def test_missing_covariate_column_named(tmp_path):
    p = _write(tmp_path, "time,event,cluster,group\n1,1,1,0\n")
    with pytest.raises(DataError, match="age"):
        ingest_csv(p, covariate_cols=["age"])


@pytest.mark.parametrize("covariates, problem", [
    (["time"], "covariate column 'time' is a required column"),
    (["group"], "covariate column 'group' is a required column"),
    (["age", "age"], "covariate column 'age' given more than once"),
])
def test_required_and_repeated_covariates_refused(tmp_path, covariates, problem):
    # the outcome in the design, or one column twice, would duplicate a
    # design column and its parameter row
    p = _write(tmp_path, "time,event,cluster,group,age\n1,1,1,0,40\n")
    with pytest.raises(DataError) as err:
        ingest_csv(p, covariate_cols=covariates)
    assert err.value.problems == [problem]


def test_missing_values_rejected_with_row_numbers(tmp_path):
    p = _write(tmp_path, "time,event,cluster,group,age\n1,1,1,0,40\n2,1,1,,33\n")
    with pytest.raises(DataError, match="row 3"):
        ingest_csv(p)


def test_ragged_rows_rejected_with_row_numbers(tmp_path):
    # row 3 lacks its covariate, row 4 has a field the header does not name
    p = _write(tmp_path, "time,event,cluster,group,age\n"
                         "1,1,1,0,40\n2,1,1,1\n3,0,2,0,35,9\n4,1,2,1,38\n")
    with pytest.raises(DataError) as err:
        ingest_csv(p)
    assert err.value.problems == ["row 3: fewer fields than the header's 5",
                                  "row 4: more fields than the header's 5"]


def test_rows_are_numbered_by_the_file_line_they_start_on(tmp_path):
    # line 3 is blank and the record on lines 5-6 quotes a newline, so the
    # bad times sit on lines 4 and 7
    p = _write(tmp_path, "time,event,cluster,group\n"
                         "1,1,1,0\n\n-2,1,1,1\n"
                         '3,0,"two\nlines",0\n0,1,1,1\n')
    with pytest.raises(DataError) as err:
        ingest_csv(p)
    assert err.value.problems == ["row 4: time must be a positive finite number, got '-2'",
                                  "row 7: time must be a positive finite number, got '0'"]


def test_blank_lines_before_the_header_are_skipped(tmp_path):
    # lines 1-2 and 5 are blank: the header is line 3 and the bad time line 6
    p = _write(tmp_path, "\n\ntime,event,cluster,group\n1,1,1,0\n\n-2,1,1,1\n")
    with pytest.raises(DataError) as err:
        ingest_csv(p)
    assert err.value.problems == ["row 6: time must be a positive finite number, got '-2'"]
    p = _write(tmp_path, "\n\n\n", name="blank.csv")
    with pytest.raises(DataError) as err:
        ingest_csv(p)
    assert err.value.problems == ["empty file: header row required"]


def test_duplicate_header_names_rejected(tmp_path):
    p = _write(tmp_path, "time,event,cluster,group,time\n1,1,1,0,2\n")
    with pytest.raises(DataError) as err:
        ingest_csv(p)
    assert err.value.problems == ["duplicate column 'time' in the header"]


def test_empty_file_rejected(tmp_path):
    p = _write(tmp_path, "")
    with pytest.raises(DataError):
        ingest_csv(p)


def test_custom_column_names(tmp_path):
    p = _write(tmp_path, "t,d,site,arm\n4.2,1,a,0\n5.0,0,b,1\n")
    d = ingest_csv(p, time_col="t", event_col="d", cluster_col="site", group_col="arm")
    assert d.n == 2 and d.q == 2
    assert list(d.cluster) == [1, 2]
