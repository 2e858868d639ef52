import dataclasses
import importlib
import json
import math
import pkgutil
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batteries import mixed_instances

import linfeas
from linfeas.instance import (
    IngestError,
    PrimalDirection,
    Record,
    SimplexPoint,
    column_space_basis,
    combine,
    ingest,
    instance_from_dict,
    instance_to_dict,
    json_text,
    load_instance,
    save_instance,
)


def test_ingest_rescales_columns():
    inst = ingest([[2.0, 0.0], [0.0, 3.0]], normalize=True)
    assert np.allclose(inst.columns.T, [[1.0, 0.0], [0.0, 1.0]])
    assert inst.normalized


def test_ingest_single_column():
    inst = ingest([[1.0, 0.0]], normalize=False)
    assert inst.d == 2 and inst.n == 1
    assert inst.rank == 1


def test_ingest_zero_column_named():
    with pytest.raises(IngestError, match="index 0"):
        ingest([[0.0, 0.0], [1.0, 0.0]], normalize=True)


def test_ingest_normalizes_columns_whose_squares_leave_the_double_range():
    # 1e200^2 overflows and 1e-200^2 underflows, yet both columns have a norm
    with np.errstate(all="raise"):
        inst = ingest([[1e200, 0.0], [0.0, 1e-200], [3e-320, 0.0]], normalize=True)
    assert inst.columns.T.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]


@pytest.mark.parametrize(
    "columns, message",
    [
        ([[1e200, 0.0], [0.0, 1e200]], "column 0 has a squared norm outside"),
        ([[1.0, 0.0], [0.0, 1e-200]], "column 1 has a squared norm outside"),
        ([[0.0, 0.0], [0.0, 0.0]], "all zero"),
    ],
)
def test_payload_without_normalizing_refuses_columns_it_cannot_measure(columns, message):
    with pytest.raises(IngestError, match=message):
        instance_from_dict({"columns": columns, "normalize": False})
    assert instance_from_dict({"columns": [[0.0, 0.0], [1e-150, 1e150]], "normalize": False}).n == 2


def test_ingest_ragged_rejected():
    with pytest.raises(IngestError, match="ragged"):
        ingest([[1.0, 0.0], [1.0]])


def test_ingest_nonfinite_rejected():
    with pytest.raises(IngestError):
        ingest([[np.nan, 0.0]], normalize=False)


@pytest.mark.parametrize(
    "columns, message",
    [
        ([["1", "0"], ["0", "1"]], "numeric vectors"),  # digit strings are not numbers
        ([[True, False], [False, True]], "numeric vectors.*bool"),
        ("123", "0-D"),
        ([[]], "dimension at least 1"),
    ],
)
def test_ingest_rejects_non_numeric_columns(columns, message):
    with pytest.raises(IngestError, match=message):
        instance_from_dict({"columns": columns})


def test_gram_orthonormal(axes):
    assert np.allclose(axes.gram, np.eye(2))


def test_gram_antipodal(segment):
    assert np.allclose(segment.gram, [[1.0, -1.0], [-1.0, 1.0]])


def test_gram_oblique_pair():
    oblique = np.array([1.0, 1.0]) / np.sqrt(2.0)
    inst = ingest([[1.0, 0.0], oblique.tolist()], normalize=False)
    expected = float(np.array([1.0, 0.0]) @ oblique)  # direct dot product
    assert inst.gram[0, 1] == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(1.0 / np.sqrt(2.0))


def test_basis_antipodal_rank_one(segment):
    basis = column_space_basis(segment)
    assert basis.rank == 1
    assert abs(abs(basis.basis[0, 0]) - 1.0) <= 1e-12


def test_basis_rank_two_in_r3():
    inst = ingest([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], normalize=False)
    assert column_space_basis(inst).rank == 2


def test_basis_near_duplicate_collapses_at_default_tol():
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    v = np.array([1.0, 1.0 + 1e-14])
    v = v / np.linalg.norm(v)
    inst = ingest([u.tolist(), v.tolist()], normalize=False)
    assert inst.rank == 1


def test_basis_custom_tol_raises_rank():
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    v = np.array([1.0, 1.0 + 1e-11])
    v = v / np.linalg.norm(v)
    inst = ingest([u.tolist(), v.tolist()], normalize=False)
    assert inst.rank == 1
    assert column_space_basis(inst, tol=1e-13).rank == 2


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6, 1e12])
def test_rank_does_not_depend_on_the_columns_scale(triangle, scale):
    # the default cutoff scales with the longest column, so the rank test must compare in the columns' units
    for inst in [triangle] + [inst for inst, _ in mixed_instances(40, seed=1700, d_max=6, n_max=12)]:
        scaled = ingest((inst.columns * scale).T.tolist(), normalize=False)
        assert scaled.rank == inst.rank, inst.name


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_basis_rejects_bad_tol(axes, tol):
    with pytest.raises(ValueError, match="finite and positive"):
        column_space_basis(axes, tol=tol)


def test_basis_reconstructs_columns():
    rng = np.random.default_rng(5)
    cols = rng.standard_normal((6, 3))
    inst = ingest(cols.tolist(), normalize=False)
    basis = inst.basis
    for i in range(inst.n):
        col = inst.columns[:, i]
        residual = np.linalg.norm(col - basis.project(col))
        assert residual <= 1e-8 * max(1.0, np.linalg.norm(col))
    identity = basis.basis.T @ basis.basis
    assert np.max(np.abs(identity - np.eye(basis.rank))) <= 1e-10


def test_combine_examples(axes, segment):
    assert np.allclose(combine(axes, SimplexPoint(np.array([0.5, 0.5]))), [0.5, 0.5])
    assert np.allclose(combine(axes, SimplexPoint.unit_mass(2, 1)), axes.columns[:, 1])
    assert np.allclose(combine(segment, SimplexPoint(np.array([0.5, 0.5]))), [0.0, 0.0])


def test_combine_dimension_mismatch(axes):
    with pytest.raises(ValueError):
        combine(axes, np.array([1.0, 0.0, 0.0]))


def test_project_examples(segment):
    assert np.allclose(segment.basis.project(np.array([0.0, 1.0])), 0.0)
    assert np.allclose(segment.basis.project(np.array([3.0, 4.0])), [3.0, 0.0])
    assert np.allclose(segment.basis.project(np.array([0.25, 0.0])), [0.25, 0.0], atol=1e-12)


def test_simplex_point_validation():
    with pytest.raises(ValueError):
        SimplexPoint(np.array([0.5, 0.4]))  # sum != 1
    with pytest.raises(ValueError):
        SimplexPoint(np.array([1.1, -0.1]))  # negative beyond tolerance
    clamped = SimplexPoint(np.array([1.0, -1e-13, 1e-13]))
    assert clamped.weights[1] == 0.0 and clamped.weights[2] == 0.0
    assert np.flatnonzero(clamped.weights).tolist() == [0]


def test_simplex_point_from_approximate():
    point = SimplexPoint.from_approximate(np.array([0.5, 0.5 + 3e-10, -2e-10]))
    assert point.weights[2] == 0.0
    assert point.weights.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        SimplexPoint.from_approximate(np.array([1.0, -1e-3]))


def test_primal_direction_validation():
    direction = PrimalDirection([3.0, 4.0])
    assert direction.vector.tolist() == [3.0, 4.0] and not direction.vector.flags.writeable
    for bad in (np.zeros(0), np.zeros((2, 2)), np.array([1.0, np.nan])):
        with pytest.raises(ValueError):
            PrimalDirection(bad)


def test_json_round_trip(tmp_path, triangle):
    path = save_instance(triangle, tmp_path / "tri.json", metadata={"note": 1})
    loaded = load_instance(path)
    assert loaded.name == triangle.name
    assert np.allclose(loaded.columns, triangle.columns)
    payload = instance_to_dict(triangle)
    assert set(payload) == {"name", "columns", "normalize"}
    again = instance_from_dict(payload)
    assert np.allclose(again.columns, triangle.columns)


@dataclass(eq=False)
class _Pair(Record):
    left: object
    right: object = None

    _properties = ("kind",)
    kind = "pair"


def _plain_types(value) -> bool:
    if isinstance(value, dict):
        return all(type(key) is str and _plain_types(item) for key, item in value.items())
    if isinstance(value, list):
        return all(_plain_types(item) for item in value)
    return value is None or type(value) in (bool, int, float, str)


def test_record_fields_come_out_as_plain_json_types():
    inner = _Pair(PrimalDirection([3.0, 4.0]), np.array([0.1, 0.2]))
    record = _Pair([_Pair(SimplexPoint([0.25, 0.75])), inner], inner)
    inner_dict = {"left": [3.0, 4.0], "right": [0.1, 0.2], "kind": "pair"}
    expected = {
        "left": [{"left": [0.25, 0.75], "right": None, "kind": "pair"}, inner_dict],
        "right": inner_dict,
        "kind": "pair",
    }
    payload = record.as_dict()
    assert payload == expected and _plain_types(payload)
    assert json.loads(json.dumps(payload)) == expected  # no default= needed
    # an array of any real dtype is written as list(map(float, ...)) writes it
    for array in (np.array([1, 2**53 + 1]), np.array([0.1, 1e-40], dtype=np.float32), np.array([True, False])):
        written = _Pair(array).as_dict()["left"]
        assert written == list(map(float, array)) and all(type(x) is float for x in written)


_JSON_STRINGS = st.text(st.sampled_from('a"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud7ff\U0001f600') | st.characters())
_JSON_FLOATS = (
    st.floats()
    | st.floats().map(np.float64)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 1e-4, np.float64(-math.inf)])
)
_JSON_LEAVES = _JSON_STRINGS | st.integers() | st.booleans() | st.none() | _JSON_FLOATS | st.lists(_JSON_FLOATS)


def _json_values(depth: int):
    if depth == 0:
        return _JSON_LEAVES
    inner = _json_values(depth - 1)
    return _JSON_LEAVES | st.lists(inner, max_size=4) | st.dictionaries(_JSON_STRINGS, inner, max_size=4)


@settings(max_examples=150, deadline=None)
@given(payload=st.dictionaries(_JSON_STRINGS, _json_values(3), max_size=5) | st.lists(_json_values(3), max_size=5))
def test_json_text_is_json_dumps_indented_with_sorted_keys(payload):
    assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [np.zeros(2), np.int64(3), np.bool_(True), np.float32(0.5)])
def test_json_text_refuses_what_json_dumps_refuses(value):
    for payload in ({"x": value}, {"x": [1.0, value]}, {"x": {"y": [[value]]}}):
        with pytest.raises(TypeError, match="not JSON serializable"):
            json.dumps(payload, indent=2, sort_keys=True)
        with pytest.raises(TypeError, match="not JSON serializable"):
            json_text(payload)


def test_from_dict_missing_columns():
    with pytest.raises(IngestError):
        instance_from_dict({"name": "broken"})


@st.composite
def small_instances(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=6))
    entries = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
    cols = draw(
        st.lists(
            st.lists(entries, min_size=d, max_size=d).filter(
                lambda c: np.linalg.norm(c) > 1e-3
            ),
            min_size=n,
            max_size=n,
        )
    )
    return ingest(cols, normalize=draw(st.booleans()))


@st.composite
def weight_vectors(draw, n):
    raw = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=n, max_size=n
        ).filter(lambda w: sum(w) > 1e-6)
    )
    w = np.array(raw)
    return w / w.sum()


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_image_norm_matches_gram_seminorm(data):
    inst = data.draw(small_instances())
    weights = data.draw(weight_vectors(inst.n))
    image = np.linalg.norm(combine(inst, weights))
    seminorm = np.sqrt(max(weights @ inst.gram @ weights, 0.0))
    assert image == pytest.approx(seminorm, rel=1e-10, abs=1e-10)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_projection_idempotent_and_nonexpansive(data):
    inst = data.draw(small_instances())
    w = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
                min_size=inst.d,
                max_size=inst.d,
            )
        )
    )
    once = inst.basis.project(w)
    twice = inst.basis.project(once)
    assert np.max(np.abs(once - twice)) <= 1e-10 * max(1.0, np.linalg.norm(once))
    assert np.linalg.norm(once) <= np.linalg.norm(w) + 1e-12


@given(inst=small_instances())
@settings(max_examples=40, deadline=None)
def test_normalized_instances_have_unit_gram_diagonal(inst):
    if inst.normalized:
        assert np.max(np.abs(np.diag(inst.gram) - 1.0)) <= 1e-12


def test_every_dataclass_of_the_library_is_frozen():
    # the kept margin report, an instance's cached basis and Gram matrix are shared by every reader:
    # a class that allowed an edit would let one caller change what a later statement reads
    modules = [importlib.import_module(f"linfeas.{info.name}") for info in pkgutil.iter_modules(linfeas.__path__)]
    classes = [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and dataclasses.is_dataclass(value) and value.__module__ == module.__name__
    ]
    assert len(classes) >= 18  # 11 result records, LpSolution, 4 input classes, AlgorithmConfig, GeneratorSpec
    assert [cls.__qualname__ for cls in classes if not cls.__dataclass_params__.frozen] == []
