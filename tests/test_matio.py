"""Deterministic serialization: exact float round trips, stable bytes."""

import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from gausschain import ParameterError
from gausschain.matio import (dumps_json, format_csv_float, format_json_float,
                              matrix_from_payload, matrix_payload, read_csv,
                              read_json, read_matrix, write_csv, write_json,
                              write_matrix)
from tests.conftest import read_bytes


def test_json_float_formatting():
    assert format_json_float(1.0) == "1.0"
    assert format_json_float(-3.0) == "-3.0"
    assert format_json_float(0.0) == "0.0"
    assert format_json_float(0.1) == "0.10000000000000001"
    with pytest.raises(ParameterError):
        format_json_float(float("nan"))
    with pytest.raises(ParameterError):
        format_json_float(float("inf"))


def test_json_float_round_trip_is_exact():
    rng = np.random.default_rng(11)
    values = list(rng.normal(scale=1e3, size=200)) + list(rng.normal(scale=1e-12, size=50))
    values += [7.65149507e6, 2.2250738585072014e-308, 1.7976931348623157e308]
    for v in values:
        assert float(format_json_float(v)) == v


def test_csv_float_is_twelve_significant_digits():
    assert format_csv_float(1.0) == "1"
    assert format_csv_float(0.123456789012345) == "0.123456789012"


def test_dumps_json_order_and_types():
    obj = {"b": 1, "a": [True, False, None, 2.5], "m": {"x": np.float64(0.5)}}
    assert dumps_json(obj) == '{"b": 1, "a": [true, false, null, 2.5], "m": {"x": 0.5}}'
    assert dumps_json(np.arange(3)) == "[0, 1, 2]"


def test_write_json_round_trip(tmp_path):
    path = str(tmp_path / "obj.json")
    obj = {"name": "run", "value": 0.1, "grid": [1, 2, 3]}
    write_json(path, obj)
    assert read_json(path) == obj


def test_matrix_payload_round_trip_exact():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    payload = matrix_payload(m, [f"{j}" for j in range(1, 6)])
    back, labels = matrix_from_payload(payload)
    assert_array_equal(back, m)
    assert labels == ("1", "2", "3", "4", "5")
    # signed zeros too: re + 1j * im once turned each -0.0 imaginary part into 0.0
    zeros = np.array([[complex(-0.0, -0.0), complex(1.5, -0.0)],
                      [complex(-0.0, 2.5), complex(0.0, 0.0)]])
    back, _ = matrix_from_payload(json.loads(dumps_json(matrix_payload(zeros, ("a", "b")))))
    assert back.view(np.uint64).tolist() == zeros.view(np.uint64).tolist()


def test_matrix_file_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    m = rng.normal(scale=1e4, size=(4, 4)) + 1j * rng.normal(scale=1e-7, size=(4, 4))
    path = str(tmp_path / "m.json")
    write_matrix(path, m, ("1", "2", "3", "4"))
    back, _ = read_matrix(path)
    assert_array_equal(back, m)


def test_matrix_payload_validation():
    with pytest.raises(ParameterError):
        matrix_from_payload({"dim": 2, "labels": ["1"], "re": [[0, 0], [0, 0]],
                             "im": [[0, 0], [0, 0]]})
    with pytest.raises(ParameterError):
        matrix_from_payload({"dim": 2, "labels": ["1", "2"], "re": [[0, 0]],
                             "im": [[0, 0], [0, 0]]})


BAD_MATRICES = {
    "bool": ([[True]], ["1"]),
    "string": ([["1"]], ["1"]),
    "null": ([[None]], ["1"]),
    "nan": ([[1.0, math.nan], [0.0, 1.0]], ["1", "2"]),
    "inf": ([[1.0, 0.0], [math.inf, 1.0]], ["1", "2"]),
    "-inf": ([[-math.inf]], ["1"]),
    "ragged": ([[1.0, 0.0], [1.0]], ["1", "2"]),
    "ragged, short row first": ([[1.0], [1.0, 0.0]], ["1", "2"]),
    "non-square": ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], ["1", "2"]),
    "labels off by one": ([[1.0, 0.0], [0.0, 1.0]], ["1", "2", "3"]),
}
# what the error names past "matrix payload ", where a case pins it
MESSAGES = {"ragged": "has rows of unequal lengths [2, 1]",
            "ragged, short row first": "has rows of unequal lengths [1, 2]"}


@pytest.mark.parametrize("writer", ["matrix_payload", "write_matrix"])
@pytest.mark.parametrize("case", list(BAD_MATRICES))
def test_matrix_writers_refuse_what_the_number_and_label_rules_refuse(tmp_path, writer, case):
    # the bool, string, null and NaN rows once wrote re 1.0, 1.0, and
    # failed on nan as "serialized value must be finite"
    entries, labels = BAD_MATRICES[case]
    path = tmp_path / "m.json"
    message = "^matrix payload " + re.escape(MESSAGES.get(case, ""))
    with pytest.raises(ParameterError, match=message):
        if writer == "matrix_payload":
            matrix_payload(entries, labels)
        else:
            write_matrix(str(path), entries, labels)
    assert not path.exists()


def test_dumps_json_takes_numpy_values_as_they_are():
    values = {"f": np.float64(0.1), "i": np.intp(3), "b": np.bool_(True), "t": (1, 2.5),
              "a": np.array([[0.5, -0.0]]), "c": np.arange(2)}
    assert dumps_json(values) == ('{"f": 0.10000000000000001, "i": 3, "b": true, '
                                  '"t": [1, 2.5], "a": [[0.5, -0.0]], "c": [0, 1]}')


def test_csv_round_trip_and_comments(tmp_path):
    path = str(tmp_path / "t.csv")
    rows = [(1, "1A", 0.5), (2, "1B", 1.25)]
    write_csv(path, ("j", "label", "value"), rows, comments=("meta line",))
    header, data = read_csv(path)
    assert header == ["j", "label", "value"]
    assert data == [["1", "1A", "0.5"], ["2", "1B", "1.25"]]
    with open(path) as fh:
        raw = fh.read()
    assert raw.startswith("# meta line\n")


def test_writers_are_byte_deterministic(tmp_path):
    rng = np.random.default_rng(9)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    write_matrix(p1, m, ("1", "2", "3"))
    write_matrix(p2, m, ("1", "2", "3"))
    assert read_bytes(p1) == read_bytes(p2)
    c1, c2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    rows = [(k, float(v)) for k, v in enumerate(rng.normal(size=20))]
    write_csv(c1, ("k", "v"), rows)
    write_csv(c2, ("k", "v"), rows)
    assert read_bytes(c1) == read_bytes(c2)
