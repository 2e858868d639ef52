"""Linear feasibility instances and the geometric primitives shared by all solvers.

An instance is a bundle of n points (the columns) in R^d. Downstream code
works off its cached Gram matrix, orthonormal basis of the column span and
unit (a power of two), and off convex combinations of the columns. Every dataclass of
the library is frozen, and an instance's arrays are read-only: assigning a
field raises dataclasses.FrozenInstanceError, so no caller can move columns
under their cached basis or edit the kept report of margins.margin_report.

Every result the program writes (margin reports, certify verdicts, run
summaries) is a ``Record``, and its JSON form is decided once, here: a
SimplexPoint is written as its weights, a PrimalDirection as its vector, an
array as a list of floats, a nested record as an object and a list element
by element; ``json_text`` lays the object out, indented, with sorted keys.
It writes the text of ``json.dumps(payload, indent=2, sort_keys=True)`` in
one pass of its own, joining a list of floats in one call: with an indent,
json runs its pure-Python encoder, a generator per container and a call per
value, which took about a fifth of a ``certify --theorem gordan3`` call.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "IngestError",
    "SimplexPoint",
    "simplex_rows",
    "PrimalDirection",
    "Record",
    "json_text",
    "write_json",
    "ColumnSpaceBasis",
    "ProblemInstance",
    "ingest",
    "column_space_basis",
    "combine",
    "instance_to_dict",
    "instance_from_dict",
    "load_instance",
    "save_instance",
]

# Entries this close to zero are clamped so support sets are deterministic.
WEIGHT_CLAMP = 1e-12

# SimplexPoint.from_approximate clamps entries in [-REPAIR_TOL, 0) and refuses lower ones;
# has_unit_columns accepts column lengths within UNIT_NORM_TOL of 1.
REPAIR_TOL = 1e-9
UNIT_NORM_TOL = 1e-9

# Default relative cutoff for the numerical rank of the column span.
RANK_TOL_SCALE = 1e-10


class IngestError(ValueError):
    """Raised when raw columns cannot form a valid instance."""


def _readonly(array: np.ndarray) -> np.ndarray:
    array = np.array(array, dtype=float)
    array.setflags(write=False)
    return array


def simplex_rows(weights: np.ndarray, repair: float | None = None) -> tuple[np.ndarray, dict[int, str]]:
    """SimplexPoint's rules applied to each row of a (k, n) block at once.

    Without ``repair``, the constructor's rules: entries must be finite and at
    least -WEIGHT_CLAMP. With it, SimplexPoint.from_approximate's instead: a
    row with an entry below -repair is refused, negative entries become 0, and
    the row is divided by its total, which must be finite and positive; a row
    that passes is then finite and nonnegative, as the constructor requires.
    Then, either way, entries within WEIGHT_CLAMP of 0 become 0, and the row,
    whose sum must lie within WEIGHT_CLAMP of 1, is divided by that sum. Each
    row's arithmetic, sums included, does not depend on k, so a row gets the
    bytes it gets alone. Returns the read-only rows and the refused rows'
    reasons (the first rule each breaks) by row index; a refused row's
    entries are meaningless.
    """
    given = np.asarray(weights, dtype=float)
    w = given.copy()
    rules = []  # (refused rows, reason) in the order the rules apply
    with np.errstate(invalid="ignore", divide="ignore"):
        if repair is None:
            rules.append((~np.isfinite(w).all(axis=1), lambda i: "weights must be finite"))
            below = (w < -WEIGHT_CLAMP).any(axis=1)
            rules.append((below, lambda i: f"negative weight beyond tolerance: min={given[i].min():.3e}"))
        else:
            below = (w < -repair).any(axis=1)
            rules.append((below, lambda i: f"negative weight beyond repair tolerance: min={given[i].min():.3e}"))
            w[w < 0.0] = 0.0
            mass = w.sum(axis=1)
            rules.append((~(np.isfinite(mass) & (mass > 0.0)), lambda i: "weights must have positive total mass"))
            w /= mass[:, None]
        w[np.abs(w) <= WEIGHT_CLAMP] = 0.0
        total = w.sum(axis=1)
        off = np.abs(total - 1.0) > WEIGHT_CLAMP
        rules.append((off, lambda i: f"weights must sum to 1, got {float(total[i])!r}"))
        w /= total[:, None]
    w.setflags(write=False)
    faults: dict[int, str] = {}
    if functools.reduce(operator.or_, (refused for refused, _ in rules)).any():
        for refused, reason in rules:
            for i in np.flatnonzero(refused):
                faults.setdefault(int(i), reason(int(i)))
    return w, faults


@dataclass(frozen=True, eq=False)
class SimplexPoint:
    """Probability vector over the n columns (convex combination weights)."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", self._one_row(self.weights, None))

    @staticmethod
    def _one_row(weights, repair: float | None) -> np.ndarray:
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must form a nonempty vector")
        rows, faults = simplex_rows(w[None], repair)
        if faults:
            raise ValueError(faults[0])
        return rows[0]

    @classmethod
    def _from_row(cls, weights: np.ndarray) -> "SimplexPoint":
        """Wrap a read-only row that simplex_rows accepted, without checking it again."""
        point = cls.__new__(cls)
        object.__setattr__(point, "weights", weights)
        return point

    @classmethod
    def unit_mass(cls, n: int, index: int) -> "SimplexPoint":
        w = np.zeros(n)
        w[index] = 1.0
        return cls(w)

    @classmethod
    def from_approximate(cls, weights: Iterable[float]) -> "SimplexPoint":
        """Build a point from slightly-off weights (e.g. LP output or iterate drift).

        Entries in [-REPAIR_TOL, 0) are clamped and the vector is renormalized;
        anything lower is still rejected. This is simplex_rows on one row.
        """
        w = list(weights) if not isinstance(weights, np.ndarray) else weights
        return cls._from_row(cls._one_row(w, REPAIR_TOL))

    @property
    def n(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True, eq=False)
class PrimalDirection:
    """A direction w in R^d."""

    vector: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.vector, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("direction must be a nonempty vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("direction must be finite")
        object.__setattr__(self, "vector", _readonly(v))


def _float_list(array: np.ndarray) -> list[float]:
    """The entries as Python floats: list(map(float, array)) for any real dtype, in one call."""
    return array.astype(float, copy=False).tolist()


def _plain_list(values: list) -> list:
    return [value if (encode := _PLAIN.get(type(value))) is None else encode(value) for value in values]


# the JSON form of a value by its exact type, where it is not the value itself; Record subclasses add themselves
_PLAIN = {
    SimplexPoint: lambda point: _float_list(point.weights),
    PrimalDirection: lambda direction: _float_list(direction.vector),
    np.ndarray: _float_list,
    list: _plain_list,
    tuple: _plain_list,
}


class Record:
    """A result written as JSON: its dataclass fields, then the properties it names."""

    _properties: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        _PLAIN[cls] = cls.as_dict

    def as_dict(self) -> dict:
        payload = vars(self).copy()
        for key, value in payload.items():
            encode = _PLAIN.get(type(value))
            if encode is not None:
                payload[key] = encode(value)
        for name in self._properties:
            payload[name] = getattr(self, name)
        return payload


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # float.__repr__'s spellings, and json's


def _json_value(value, indent: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True), with every line after the first prefixed by indent."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        separator = ",\n" + inner
        try:  # a list of floats in one call; only a nonfinite float's repr holds an n
            text = separator.join(map(float.__repr__, value))
            if "n" in text:
                raise TypeError
        except TypeError:
            text = separator.join([_json_value(item, inner) for item in value])
        return f"[\n{inner}{text}\n{indent}]"
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        if not value:
            return "{}"
        text = (",\n" + inner).join(
            [f"{encode_basestring_ascii(key)}: {_json_value(item, inner)}" for key, item in sorted(value.items())]
        )
        return f"{{\n{inner}{text}\n{indent}}}"
    # other keys, and values json cannot write (it raises TypeError): json's own pass
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def json_text(payload: dict) -> str:
    """The layout of every JSON document linfeas prints or saves, alpha dumps aside: indent 2, sorted keys.

    The text is json.dumps(payload, indent=2, sort_keys=True), laid out in one pass (see the module docstring).
    """
    return _json_value(payload, "")


def write_json(payload: dict, path: str | Path) -> Path:
    """Save json_text(payload) and a newline at path, making its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json_text(payload) + "\n", encoding="utf-8")
    return path


@dataclass(frozen=True, eq=False)
class ColumnSpaceBasis:
    """Orthonormal basis of the span of the columns, with the rank cutoff used."""

    basis: np.ndarray  # (d, rank), orthonormal columns
    rank: int
    tolerance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", _readonly(self.basis))

    def project(self, w: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ np.asarray(w, dtype=float))

    def coordinates(self, vectors: np.ndarray) -> np.ndarray:
        """Coordinates of d-dim vectors (columns) in the basis frame."""
        return self.basis.T @ np.asarray(vectors, dtype=float)

    def lift(self, coords: np.ndarray) -> np.ndarray:
        return self.basis @ np.asarray(coords, dtype=float)


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """n points in R^d stored as the columns of a (d, n) array."""

    columns: np.ndarray
    name: str = "instance"
    normalized: bool = False

    def __post_init__(self) -> None:
        cols = np.array(self.columns, dtype=float)
        if cols.ndim != 2 or cols.shape[0] < 1 or cols.shape[1] < 1:
            raise IngestError("columns must form a (d, n) array with d, n >= 1")
        if not np.all(np.isfinite(cols)):
            raise IngestError("columns must have finite entries")
        if self.normalized:
            norms = np.linalg.norm(cols, axis=0)
            if np.any(np.abs(norms - 1.0) > 1e-12):
                raise IngestError("normalized flag set but columns are not unit length")
        object.__setattr__(self, "columns", _readonly(cols))

    @property
    def d(self) -> int:
        return int(self.columns.shape[0])

    @property
    def n(self) -> int:
        return int(self.columns.shape[1])

    @cached_property
    def gram(self) -> np.ndarray:
        g = self.columns.T @ self.columns
        g = 0.5 * (g + g.T)
        return _readonly(g)

    @cached_property
    def basis(self) -> ColumnSpaceBasis:
        return _compute_basis(self.columns, self.default_rank_tol)

    @cached_property
    def unit(self) -> tuple[np.longdouble, int]:
        """The longest column's length in longdouble, and the k with that length / 2**k in [1/sqrt(2), sqrt(2)):
        2**k is the one unit of the oracle and the certifiers; dividing by it rounds nothing; k = 0 on unit columns."""
        cols = self.columns.astype(np.longdouble)
        reach = np.sqrt(np.einsum("ij,ij->j", cols, cols)).max()
        return reach, int(np.frexp(reach * np.sqrt(2.0))[1]) - 1

    @property
    def default_rank_tol(self) -> float:
        return RANK_TOL_SCALE * float(np.linalg.norm(self.columns, axis=0).max())

    @property
    def rank(self) -> int:
        return self.basis.rank

    def has_unit_columns(self) -> bool:
        norms = np.linalg.norm(self.columns, axis=0)
        return bool(np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL))


def _compute_basis(columns: np.ndarray, tol: float) -> ColumnSpaceBasis:
    """Rank-revealing orthogonalization with greedy pivoting on residual norms; all-zero columns have rank 0."""
    d, n = columns.shape
    work = columns.copy()
    vectors: list[np.ndarray] = []
    for _ in range(min(d, n)):
        norms = np.sqrt(np.add.reduce(work * work, axis=0))  # np.linalg.norm(work, axis=0), without its wrapper
        j = int(norms.argmax())
        if norms[j] <= tol:
            break
        q = work[:, j] / norms[j]
        # one re-orthogonalization pass keeps the basis clean at desk scale
        for b in vectors:
            q -= (b @ q) * b  # q is the division's own array
        qn = np.sqrt(q.dot(q))  # np.linalg.norm(q)
        if qn * norms[j] <= tol:  # the new direction's length in the columns' units, as tol is
            break
        q /= qn
        vectors.append(q)
        work -= q[:, None] * (q @ work)  # the products of np.outer, without its wrapper
    basis = np.array(vectors).T.copy() if vectors else np.zeros((d, 0))  # np.column_stack, without its wrapper
    return ColumnSpaceBasis(basis=basis, rank=len(vectors), tolerance=tol)


def ingest(
    raw_columns: Sequence[Sequence[float]],
    normalize: bool = True,
    name: str = "instance",
) -> ProblemInstance:
    """Build an instance from a list of column vectors.

    With ``normalize`` set (the default), every column is rescaled to unit
    Euclidean norm; zero columns are rejected by index since they cannot be
    rescaled. Without it, a nonzero column whose squared norm is not a finite
    normal double is rejected.
    """
    if len(raw_columns) == 0:
        raise IngestError("need at least one column")
    lengths = {len(col) for col in raw_columns}
    if len(lengths) != 1:
        raise IngestError(f"ragged column dimensions: {sorted(lengths)}")
    cols = np.asarray(raw_columns)
    # decide what a number is here, not in numpy: no digit strings, booleans or scalars
    if cols.ndim != 2 or cols.dtype.kind not in "fiu":
        raise IngestError(f"columns must be numeric vectors, got a {cols.ndim}-D array of {cols.dtype}")
    if cols.shape[1] == 0:
        raise IngestError("columns must have dimension at least 1")
    cols = cols.astype(float).T  # outer list indexes columns
    if not np.all(np.isfinite(cols)):
        raise IngestError("columns must have finite entries")
    # scale each column by the power of two that puts its largest entry in [0.5, 1): exact, so
    # its norm neither overflows nor underflows to zero, and is bit for bit the raw columns'
    # norm wherever that one does neither
    exponents = np.frexp(np.abs(cols).max(axis=0))[1]
    scaled = np.ldexp(cols, -exponents)
    norms = np.linalg.norm(scaled, axis=0)  # times 2**exponents
    if normalize:
        zero = np.nonzero(norms == 0.0)[0]
        if zero.size:
            raise IngestError(f"cannot normalize zero column at index {int(zero[0])}")
        return ProblemInstance(columns=scaled / norms, name=name, normalized=True)
    # the Gram matrix and the rank cutoff are formed from the raw columns: their squared norms must be normal
    with np.errstate(over="ignore", under="ignore"):
        squares = np.ldexp(norms * norms, 2 * exponents)
    info = np.finfo(float)
    bad = np.nonzero((norms > 0.0) & ~((squares >= info.tiny) & (squares <= info.max)))[0]
    if bad.size:
        raise IngestError(
            f"column {int(bad[0])} has a squared norm outside the normal double range; ingest with normalize=True"
        )
    return ProblemInstance(columns=cols, name=name, normalized=False)


def column_space_basis(instance: ProblemInstance, tol: float | None = None) -> ColumnSpaceBasis:
    """Orthonormal basis of the column span at the given rank cutoff.

    The default cutoff is the instance-scaled one; passing ``tol`` recomputes
    the basis, since the reported rank (and hence the negative margin) can be
    sensitive to it; it must be finite and positive.
    """
    if tol is None:
        return instance.basis
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError("rank tolerance must be finite and positive")
    return _compute_basis(instance.columns, tol)


def combine(instance: ProblemInstance, p: SimplexPoint | np.ndarray) -> np.ndarray:
    """The point of the convex hull selected by the weights: columns @ p."""
    w = p.weights if isinstance(p, SimplexPoint) else np.asarray(p, dtype=float)
    if w.shape != (instance.n,):
        raise ValueError(f"weights have shape {w.shape}, expected ({instance.n},)")
    return instance.columns @ w


def instance_to_dict(instance: ProblemInstance) -> dict:
    return {
        "name": instance.name,
        "columns": [list(map(float, instance.columns[:, i])) for i in range(instance.n)],
        "normalize": bool(instance.normalized),
    }


def instance_from_dict(payload: dict) -> ProblemInstance:
    if not isinstance(payload, dict):
        raise IngestError(f"instance payload must be an object, got {type(payload).__name__}")
    try:
        columns = payload["columns"]
    except KeyError as exc:
        raise IngestError("instance payload is missing 'columns'") from exc
    normalize, name = payload.get("normalize", True), payload.get("name", "instance")
    if not isinstance(normalize, bool):  # a truthy string such as "false" must not normalize the columns
        raise IngestError(f"'normalize' must be true or false, got {normalize!r}")
    if not isinstance(name, str):
        raise IngestError(f"'name' must be a string, got {name!r}")
    try:
        instance = ingest(columns, normalize=normalize, name=name)
    except IngestError:
        raise
    except (TypeError, ValueError) as exc:
        raise IngestError(f"'columns' must hold numeric vectors: {exc}") from exc
    # no margin, rank cutoff or solver start exists for these; ingest keeps them for the library
    if not instance.columns.any():
        raise IngestError("columns are all zero")
    return instance


def load_instance(path: str | Path) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return instance_from_dict(payload)


def save_instance(
    instance: ProblemInstance,
    path: str | Path,
    metadata: dict | None = None,
) -> Path:
    payload = instance_to_dict(instance)
    if metadata is not None:
        payload["metadata"] = metadata
    return write_json(payload, path)
