import json

import numpy as np
import pytest

from susygate.filter_fit import Trajectory
from susygate.serialize import load_json, matrix_from_json, matrix_to_json, save_json


def test_matrix_roundtrip(rng):
    a = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    obj = matrix_to_json(a)
    assert obj["rows"] == 3 and obj["cols"] == 5
    assert np.array_equal(matrix_from_json(obj), a)


def test_real_matrix_roundtrip():
    a = np.arange(6.0).reshape(2, 3)
    back = matrix_from_json(matrix_to_json(a))
    assert np.array_equal(back, a.astype(complex))


def test_entry_count_validated():
    with pytest.raises(ValueError, match="entry count"):
        matrix_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})


def test_not_a_matrix_object():
    with pytest.raises(ValueError, match="matrix"):
        matrix_from_json({"rows": 2})


def test_file_roundtrip_and_bad_json(tmp_path):
    path = tmp_path / "m.json"
    save_json(path, matrix_to_json(np.eye(2)))
    assert matrix_from_json(load_json(path))[0, 0] == 1.0
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ValueError, match="JSON"):
        load_json(bad)


def per_element_matrix(a) -> dict:
    # reference encoding: one float() call per entry
    a = np.atleast_2d(np.asarray(a))
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": [float(x) for x in a.real.reshape(-1)],
        "im": [float(x) for x in a.imag.reshape(-1)],
    }


@pytest.mark.parametrize(
    "a",
    [
        np.array([[1.5 - 0.0j, -0.0 + 2e-310j], [np.nan + 1j, -np.inf - 1e300j]]),
        np.array([[0.1, -0.0, 1e-310], [np.inf, 3.0, -7.25]]),
        np.array([[3, -4], [2**53 + 1, -(2**62)]], dtype=np.int64),
        np.array([[True, False, True]]),
        np.array([0.25, 0.5], dtype=np.float32),
        2.0 - 1.0j,
    ],
    ids=["complex", "float", "int", "bool", "float32-1d", "scalar"],
)
def test_matrix_json_bytes_match_per_element_encoding(a):
    assert json.dumps(matrix_to_json(a)) == json.dumps(per_element_matrix(a))


@pytest.mark.parametrize("with_record", [True, False])
def test_trajectory_json_bytes_match_per_element_encoding(rng, with_record):
    times = np.arange(5) * 0.1
    states = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    record = rng.normal(size=4) if with_record else None
    traj = Trajectory(times=times, states=states, record=record, seed=3)
    reference = {
        "times": [float(t) for t in times],
        "states": [per_element_matrix(s) for s in states],
        "record": None if record is None else [float(x) for x in record],
        "seed": 3,
    }
    assert json.dumps(traj.to_json(), sort_keys=True) == json.dumps(reference, sort_keys=True)


@pytest.mark.parametrize("entry", [float("nan"), float("inf"), float("-inf"), None])
def test_non_finite_entry_rejected(entry):
    obj = {**matrix_to_json(np.eye(2)), "im": [0.0, entry, 0.0, 0.0]}
    with pytest.raises(ValueError, match="finite"):
        matrix_from_json(obj)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_save_json_refuses_non_finite(tmp_path, value):
    from susygate.errors import NonFiniteError

    path = tmp_path / "out.json"
    with pytest.raises(NonFiniteError, match="out.json"):
        save_json(path, {"nested": [1.0, {"x": value}]})
    assert not path.exists()
