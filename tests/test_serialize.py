import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from susygate.dyson import ControlPulse
from susygate.filter_fit import Trajectory
from susygate.errors import NonFiniteError
from susygate.spectrum import Spectrum, compute_spectrum
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


@pytest.mark.parametrize("call, message", [
    (lambda: matrix_to_json(np.zeros((2, 2, 2))), r"^expected a 2-D array, got shape \(2, 2, 2\)$"),
    (lambda: matrix_from_json({"rows": -1, "cols": -2, "re": [0.0, 0.0], "im": [0.0, 0.0]}),
     "^matrix dimensions must be non-negative$"),
], ids=["3-d-array", "negative-dims"])
def test_matrix_schema_refuses_bad_shapes(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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


def per_element_coordinates(rho) -> list:
    # reference encoding of one Hermitian state: its real diagonal, then Re
    # and Im of the strict upper triangle, row by row, one float() per entry
    d = len(rho)
    upper = [rho[i][j] for i in range(d) for j in range(i + 1, d)]
    return ([float(rho[k][k].real) for k in range(d)]
            + [float(z.real) for z in upper] + [float(z.imag) for z in upper])


def hermitian(coords, d) -> np.ndarray:
    # the state whose stored coordinates are ``coords``, entry by entry
    rho = np.zeros((d, d), dtype=complex)
    upper = [(i, j) for i in range(d) for j in range(i + 1, d)]
    for k in range(d):
        rho.real[k, k] = coords[k]
    for m, (i, j) in enumerate(upper):
        rho.real[i, j] = rho.real[j, i] = coords[d + m]
        rho.imag[i, j], rho.imag[j, i] = coords[d + len(upper) + m], -coords[d + len(upper) + m]
    return rho


@pytest.mark.parametrize("with_record", [True, False])
def test_trajectory_json_bytes_match_per_element_encoding(rng, with_record):
    times = np.arange(5) * 0.1
    a = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    states = a + a.conj().swapaxes(1, 2)
    record = rng.normal(size=4) if with_record else None
    traj = Trajectory(times=times, states=states, record=record, seed=3)
    reference = {
        "dim": 3,
        "times": [float(t) for t in times],
        "states": [per_element_coordinates(s) for s in states],
        "record": None if record is None else [float(x) for x in record],
        "seed": 3,
    }
    assert json.dumps(traj.to_json(), sort_keys=True) == json.dumps(reference, sort_keys=True)


@pytest.mark.parametrize("skew", [1e-6, 2e-8])
def test_trajectory_writer_refuses_a_state_that_is_not_hermitian(tmp_path, skew):
    states = np.array([np.eye(2) / 2, [[0.5, skew], [0.0, 0.5]]], dtype=complex)
    path = tmp_path / "trajectory.json"
    with pytest.raises(ValueError, match="not Hermitian"):
        save_json(path, Trajectory(times=np.arange(2.0), states=states).to_json())
    assert not path.exists()
    # within what validate tolerates, the upper triangle is kept as it is
    states[1, 0, 1] = 0.5e-8
    back = Trajectory.from_json(Trajectory(times=np.arange(2.0), states=states).to_json())
    assert back.states[1, 0, 1] == back.states[1, 1, 0] == 0.5e-8


def test_trajectory_writer_leaves_a_non_finite_state_to_save_json(tmp_path):
    states = np.array([[[np.nan, 0.0], [0.0, 1.0]]], dtype=complex)
    path = tmp_path / "trajectory.json"
    with pytest.raises(NonFiniteError, match="trajectory.json"):
        save_json(path, Trajectory(times=np.zeros(1), states=states).to_json())
    assert not path.exists()


@pytest.mark.parametrize(
    "change, message",
    [({"states": [[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0]]}, "state 1 has 3 coordinates"),
     ({"states": [[0.5, 0.5, 0.0, 0.0, 0.0]] * 2}, "state 0 has 5 coordinates"),
     ({"states": [[0.5, 0.5, float("nan"), 0.0]] * 2}, "finite"),
     ({"states": [[0.5, 0.5, None, 0.0]] * 2}, "finite"),
     ({"states": [[0.5, 0.5, 0.0, float("inf")]] * 2}, "finite"),
     ({"states": [[[0.5], [0.5], [0.0], [0.0]]] * 2}, "one row of 4 numbers"),
     ({"dim": None}, "dim"),
     ({"dim": 0, "states": [[], []]}, "at least 1")],
    ids=["short-row", "long-row", "nan", "null", "inf", "nested", "missing-dim", "dim-0"],
)
def test_trajectory_reader_refuses_malformed_states(change, message):
    obj = {**Trajectory(times=np.arange(2.0), states=np.stack([np.eye(2) / 2] * 2)).to_json(),
           **change}
    if obj["dim"] is None:
        del obj["dim"]
    with pytest.raises(ValueError, match=message):
        Trajectory.from_json(obj)


@pytest.mark.parametrize("entry", [float("nan"), float("inf"), float("-inf"), None])
def test_non_finite_entry_rejected(entry):
    obj = {**matrix_to_json(np.eye(2)), "im": [0.0, entry, 0.0, 0.0]}
    with pytest.raises(ValueError, match="finite"):
        matrix_from_json(obj)


_TRAJECTORY = Trajectory(times=np.arange(3.0), states=np.stack([np.eye(2) / 2] * 3),
                         record=np.zeros(2)).to_json()


# (reader, a valid object, the path of one entry of a number list)
_NUMBER_LISTS = pytest.mark.parametrize(
    "read, obj, where",
    [(matrix_from_json, matrix_to_json(np.eye(2)), ("re", 1)),
     (matrix_from_json, matrix_to_json(np.eye(2)), ("im", 2)),
     (Trajectory.from_json, _TRAJECTORY, ("states", 1, 2)),
     (Trajectory.from_json, _TRAJECTORY, ("times", 1)),
     (Trajectory.from_json, _TRAJECTORY, ("record", 0)),
     (ControlPulse.from_json, ControlPulse(2.0, np.array([0.1, 0.0, 0.2])).to_json(),
      ("coeffs", 1)),
     (Spectrum.from_json, compute_spectrum(0.03, 0.01, kept=2, raw_dim=6).to_json(),
      ("energies", 0))],
    ids=["matrix-re", "matrix-im", "trajectory-states", "trajectory-times",
         "trajectory-record", "pulse-coeffs", "spectrum-energies"],
)


def _with_entry(obj, where, entry):
    obj = json.loads(json.dumps(obj))
    *path, last = where
    parent = obj
    for key in path:
        parent = parent[key]
    parent[last] = entry
    return obj


@pytest.mark.parametrize("entry", ["1.5", True], ids=["string", "boolean"])
@_NUMBER_LISTS
def test_number_lists_refuse_strings_and_booleans(read, obj, where, entry):
    # NumPy reads "1.5" as 1.5 and true as 1.0; a reader must not
    with pytest.raises(ValueError, match="a string or a boolean where a number belongs"):
        read(_with_entry(obj, where, entry))


@pytest.mark.parametrize("entry", [None, float("nan"), float("inf"), -float("inf"), 10**400],
                         ids=["null", "nan", "inf", "-inf", "int-1e400"])
@_NUMBER_LISTS
def test_number_lists_refuse_non_finite_numbers(read, obj, where, entry):
    # NumPy reads null as NaN, JSON's 1e400 parses as inf, and a JSON integer
    # too large for a double overflows its conversion
    with pytest.raises(ValueError, match=f"^{where[0]}: null, NaN or an infinite number"):
        read(_with_entry(obj, where, entry))


_PULSE = ControlPulse(2.0, np.array([0.1, 0.0, 0.2])).to_json()
_SPECTRUM = compute_spectrum(0.03, 0.01, kept=2, raw_dim=6).to_json()
_SEEDED = Trajectory(times=np.arange(2.0), states=np.stack([np.eye(2) / 2] * 2), seed=3).to_json()


@pytest.mark.parametrize("spoil", [str, lambda value: True], ids=["string", "boolean"])
@pytest.mark.parametrize(
    "read, obj, key",
    [(matrix_from_json, matrix_to_json(np.eye(2)), "rows"),
     (matrix_from_json, matrix_to_json(np.eye(1)), "cols"),
     (ControlPulse.from_json, _PULSE, "T"),
     (ControlPulse.from_json, _PULSE, "K"),
     (Trajectory.from_json, _SEEDED, "dim"),
     (Trajectory.from_json, _SEEDED, "seed"),
     (Spectrum.from_json, _SPECTRUM, "cutoff_raw"),
     (Spectrum.from_json, _SPECTRUM, "cutoff_kept"),
     (Spectrum.from_json, _SPECTRUM, "c1"),
     (Spectrum.from_json, _SPECTRUM, "c2")],
    ids=["matrix-rows", "matrix-cols", "pulse-T", "pulse-K", "trajectory-dim", "trajectory-seed",
         "spectrum-cutoff-raw", "spectrum-cutoff-kept", "spectrum-c1", "spectrum-c2"],
)
def test_scalar_fields_refuse_strings_and_booleans(read, obj, key, spoil):
    # int() and float() read "2" as 2 and true as 1
    with pytest.raises(ValueError, match=f"^{key}: .* is not an? (integer|number)$"):
        read({**obj, key: spoil(obj[key])})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400],
                         ids=["nan", "inf", "-inf", "int-1e400"])
@pytest.mark.parametrize("read, obj, key", [(ControlPulse.from_json, _PULSE, "T"),
                                            (Spectrum.from_json, _SPECTRUM, "c1"),
                                            (Spectrum.from_json, _SPECTRUM, "c2")],
                         ids=["pulse-T", "spectrum-c1", "spectrum-c2"])
def test_float_fields_refuse_non_finite_numbers(read, obj, key, value):
    with pytest.raises(ValueError, match=f"^{key}: {value!r} is not a finite number$"):
        read({**obj, key: value})


def test_integer_fields_refuse_a_float():
    with pytest.raises(ValueError, match="rows: 2.0 is not an integer"):
        matrix_from_json({**matrix_to_json(np.eye(2)), "rows": 2.0})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_save_json_refuses_non_finite(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(NonFiniteError, match="out.json"):
        save_json(path, {"nested": [1.0, {"x": value}]})
    assert not path.exists()


def test_save_json_writes_compact_sorted_json(tmp_path):
    obj = {"b": [1.5, -0.0, 5e-324], "a": {"z": None, "y": True, "x": "π"}, "c": 2**70}
    path = tmp_path / "out.json"
    save_json(path, obj)
    assert path.read_text() == json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


# --- bitwise round trips through save_json/load_json ------------------------------

FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def complex_arrays(shape):
    return st.tuples(
        arrays(np.float64, shape, elements=FINITE), arrays(np.float64, shape, elements=FINITE)
    ).map(lambda parts: _complex(*parts))


def _complex(re, im):
    # part by part, so every sign of zero survives
    a = np.empty(re.shape, dtype=complex)
    a.real, a.imag = re, im
    return a


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(bits(a), bits(b))


def through_file(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "obj.json"
        save_json(path, obj)
        return load_json(path)


@given(st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(complex_arrays))
def test_matrix_file_roundtrip_is_bitwise(a):
    assert_same_bits(matrix_from_json(through_file(matrix_to_json(a))), a)


@given(
    horizon=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    coeffs=st.integers(0, 4).flatmap(
        lambda k: arrays(np.float64, 2 * k + 1, elements=FINITE)
    ),
)
def test_pulse_file_roundtrip_is_bitwise(horizon, coeffs):
    pulse = ControlPulse(horizon, coeffs)
    back = ControlPulse.from_json(through_file(pulse.to_json()))
    assert_same_bits(np.float64(back.horizon), np.float64(horizon))
    assert_same_bits(back.coeffs, coeffs)


def hermitian_stacks(n, d):
    # states drawn by their stored coordinates, so those take every FINITE value
    return arrays(np.float64, (n, d * d), elements=FINITE).map(
        lambda coords: np.stack([hermitian(c, d) for c in coords]))


@st.composite
def trajectories(draw):
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    record = draw(st.one_of(st.none(), arrays(np.float64, n - 1, elements=FINITE)))
    return Trajectory(
        times=draw(arrays(np.float64, n, elements=FINITE)),
        states=draw(hermitian_stacks(n, d)),
        record=record,
        seed=draw(st.one_of(st.none(), st.integers(0, 2**64))),
    )


def stored_coordinates(states) -> np.ndarray:
    # real diagonal, Re and Im of the strict upper triangle, state by state
    d = states.shape[-1]
    i, j = np.triu_indices(d, 1)
    return np.concatenate([states.real[:, range(d), range(d)], states.real[:, i, j],
                           states.imag[:, i, j]], axis=1)


@given(trajectories())
def test_trajectory_file_roundtrip_is_bitwise(traj):
    text = json.dumps(traj.to_json(), sort_keys=True)
    back = Trajectory.from_json(through_file(traj.to_json()))
    assert_same_bits(back.times, traj.times)
    assert_same_bits(stored_coordinates(back.states), stored_coordinates(traj.states))
    assert_same_bits(back.states, traj.states)
    if traj.record is None:
        assert back.record is None
    else:
        assert_same_bits(back.record, traj.record)
    assert back.seed == traj.seed
    assert json.dumps(back.to_json(), sort_keys=True) == text


@given(
    stack=st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 4)).flatmap(
        complex_arrays),
    states=st.tuples(st.integers(1, 5), st.integers(1, 4)).flatmap(
        lambda nd: hermitian_stacks(*nd)),
)
def test_stack_encoding_matches_per_matrix_encoding(stack, states):
    per_matrix = [matrix_to_json(s) for s in stack]
    # list equality cannot tell -0.0 from 0.0; the bytes can
    text = json.dumps(per_matrix, sort_keys=True)
    assert text == json.dumps([per_element_matrix(s) for s in stack], sort_keys=True)
    # a trajectory encodes its whole stack at once, as each state alone
    rows = Trajectory(times=np.arange(len(states), dtype=float), states=states).to_json()["states"]
    alone = [Trajectory(times=np.zeros(1), states=s[None]).to_json()["states"][0] for s in states]
    assert json.dumps(rows) == json.dumps(alone)
    assert json.dumps(rows) == json.dumps([per_element_coordinates(s) for s in states])
