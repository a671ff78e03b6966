"""Bundled classification task and dataset CSV handling."""

import numpy as np
import pytest

from onetr import DomainError, make_blobs, read_dataset_csv, write_dataset_csv
from onetr.data import N_CLASSES, N_FEATURES


def test_blob_shapes_and_ranges(blobs):
    assert blobs.x_train.shape == (2000, N_FEATURES)
    assert blobs.x_test.shape == (500, N_FEATURES)
    assert blobs.y_train.shape == (2000,)
    assert np.all(blobs.x_train >= 0.0)  # activations feed read voltages
    assert np.all(blobs.x_test >= 0.0)
    assert set(np.unique(blobs.y_train)) == set(range(N_CLASSES))
    counts = np.bincount(blobs.y_train)
    assert counts.max() - counts.min() <= 1  # round-robin labels


def test_blobs_are_deterministic(blobs):
    again = make_blobs()
    assert np.array_equal(blobs.x_train, again.x_train)
    assert np.array_equal(blobs.y_test, again.y_test)


def test_feature_scales_vary(blobs):
    # The task mixes feature magnitudes over two decades, which is what makes
    # per-layer weight ranges differ.
    spans = blobs.x_train.max(axis=0) - blobs.x_train.min(axis=0)
    assert spans.max() / spans.min() > 10.0


def test_dataset_csv_round_trip(tmp_path, blobs):
    # Both full splits read back exactly as Python's float() of the text.
    for x, y in ((blobs.x_train, blobs.y_train), (blobs.x_test, blobs.y_test)):
        path = tmp_path / "split.csv"
        write_dataset_csv(path, x, y)
        got_x, got_y = read_dataset_csv(path)
        want_x = np.array([[float(format(v, ".9g")) for v in row] for row in x])
        assert np.array_equal(got_x, want_x) and np.array_equal(got_y, y)
        assert (got_x.dtype, got_y.dtype) == (want_x.dtype, y.dtype)
        assert got_x.flags.c_contiguous and got_y.flags.c_contiguous
        assert np.allclose(got_x, x, rtol=1e-8)


@pytest.mark.parametrize("label", [-1, 2.7, float("nan"), float("inf"),
                                   1e30])
def test_dataset_csv_writer_rejects_what_the_reader_would(tmp_path, label):
    # Labels are non-negative int64 values; 2.0 is one, 2.7 is not.
    with pytest.raises(DomainError, match="labels"):
        write_dataset_csv(tmp_path / "data.csv", [[1.0, 2.0], [3.0, 4.0]],
                          [0, label])
    assert not any(tmp_path.iterdir())
    write_dataset_csv(tmp_path / "data.csv", [[1.0, 2.0]], [2.0])
    assert read_dataset_csv(tmp_path / "data.csv")[1].tolist() == [2]


HEADER = b"f0,f1,label"


@pytest.mark.parametrize("body, x, y", [
    (b"\r\n1,2,0\r\n3,4,1\r\n", [[1, 2], [3, 4]], [0, 1]),
    (b"\r1,2,0\r3,4,1\r", [[1, 2], [3, 4]], [0, 1]),
    (b"\n1,2,0\n3,4,1", [[1, 2], [3, 4]], [0, 1]),
    (b'\n"1.5",2,"0"\n', [[1.5, 2]], [0]),
    (b"\n0.25,1e-3,2\n", [[0.25, 1e-3]], [2]),
    (b"\n\n1,2,0\n\n3,4,1\n\n", [[1, 2], [3, 4]], [0, 1]),
], ids=["crlf", "bare-cr", "no-final-newline", "quoted", "single-row",
        "blank-lines"])
def test_dataset_csv_grammar_loads(tmp_path, body, x, y):
    path = tmp_path / "data.csv"
    path.write_bytes(HEADER + body)
    got_x, got_y = read_dataset_csv(path)
    assert got_x.shape == (len(y), 2) and got_y.shape == (len(y),)
    assert np.array_equal(got_x, x) and np.array_equal(got_y, y)
    assert (got_x.dtype, got_y.dtype) == (np.float64, np.int64)


@pytest.mark.filterwarnings("error")  # a header-only file warns nothing
@pytest.mark.parametrize("body", [
    b"\n", b"\n\n\n", b"\n1_0,2,0\n", "\n１,2,0\n".encode(),
    "\n1,٣,0\n".encode(), b"\n1,2,3.0\n", b"\n1,2,9223372036854775808\n",
    b"\n#1,2,0\n", b"\n1,2,0\n# note\n", b"\n1,2\n", b"\n1,2,-1\n",
    b"\nnan,2,0\n", b"\n1,2,\xff\n",
], ids=["header-only", "blank-only", "underscore", "fullwidth-digit",
        "arabic-indic-digit", "float-label", "label-beyond-int64",
        "hash-number", "hash-line", "short-row", "negative-label", "nan",
        "not-utf8"])
def test_dataset_csv_grammar_rejects(tmp_path, body):
    path = tmp_path / "data.csv"
    path.write_bytes(HEADER + body)
    with pytest.raises(DomainError, match="data.csv"):
        read_dataset_csv(path)


@pytest.mark.parametrize("body, line", [
    (b"\nabc,2,0\n", 2), (b"\n1,2,0\n1,2\n", 3),
    (b"\r\n1,2,0\r\n\r\n\r\n1,x,0\r\n", 5),
], ids=["bad-number", "short-row", "bad-number-after-blank-lines"])
def test_dataset_csv_error_names_the_file_line(tmp_path, body, line):
    # The header is line 1; blank lines count as lines.
    path = tmp_path / "data.csv"
    path.write_bytes(HEADER + body)
    with pytest.raises(DomainError, match=rf"data\.csv:{line}: "):
        read_dataset_csv(path)


def test_dataset_csv_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1\n1.0\n")
    with pytest.raises(DomainError):
        read_dataset_csv(path)
    path.write_text("nope\n1.0\n")
    with pytest.raises(DomainError):
        read_dataset_csv(path)
