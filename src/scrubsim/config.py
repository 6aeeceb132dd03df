"""One typed reader per JSON kind, for every input file, and the one writer
for every output file.

Each reader takes a parsed value and the name of its field, and refuses with
an InputError naming the field any value JSON did not spell as its kind: a
boolean or a numeric string is not a number, a number is not a name, a
string is not a list, and an unknown object key is not ignored. Range checks
(finite, >= 0) stay with the types that need them.

Every JSON output has one format, `json_text`, and every CSV output is one
header row and its rows; a write that fails is an InputError naming the file.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from collections.abc import Collection, Iterable

import numpy as np

from .errors import InputError


def whole(value, what: str) -> int:
    """A JSON integer, or a float without a fraction (4.0)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} must be a whole number, not {value!r}")
    try:
        n = int(value)
    except (OverflowError, ValueError) as exc:  # infinity, NaN
        raise InputError(f"{what} must be a whole number, not {value!r}: {exc}") from None
    if n != value:
        raise InputError(f"{what} must be a whole number, not {value!r}")
    return n


def real(value, what: str) -> float:
    """A JSON number, NaN and infinity included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond float range
        raise InputError(f"{what} must be a number in float range: {exc}") from None


def flag(value, what: str) -> bool:
    """JSON true or false: "false" or 0 is refused, not read by truthiness."""
    if not isinstance(value, bool):
        raise InputError(f"{what} must be true or false, not {value!r}")
    return value


def string(value, what: str) -> str:
    if not isinstance(value, str):
        raise InputError(f"{what} must be a string, not {value!r}")
    return value


def path(value, what: str) -> str | None:
    """A file path, or null for none (JSON true would open file descriptor 1)."""
    return None if value is None else string(value, what)


def items(value, what: str, size: int | None = None) -> list:
    """A JSON list, of `size` items when given."""
    if not isinstance(value, list) or size is not None and len(value) != size:
        kind = "a list" if size is None else f"a list of {size}"
        raise InputError(f"{what} must be {kind}, not {value!r}")
    return value


def record(value, what: str, required: Collection[str] = (),
           optional: Collection[str] | None = ()) -> dict:
    """A JSON object holding every `required` key and no key outside
    `required` and `optional` (any key when `optional` is None): a misspelt
    key is refused, not ignored in favour of its default."""
    if not isinstance(value, dict):
        raise InputError(f"{what} must be an object, not {value!r}")
    for key in value:
        if optional is not None and key not in required and key not in optional:
            raise InputError(f"{what} has unknown key {key!r}")
    for key in required:
        if key not in value:
            raise InputError(f"{what} lacks key {key!r}")
    return value


def matrix(value, what: str) -> np.ndarray:
    """A list of equal-length lists of JSON numbers, as a (rows, columns)
    float array."""
    rows = [[real(v, f"{what}[{i}][{j}]") for j, v in enumerate(items(row, f"{what}[{i}]"))]
            for i, row in enumerate(items(value, what))]
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise InputError(f"{what} rows must all have {width} entries")
    return np.array(rows, dtype=float).reshape(len(rows), width)


def _object(pairs: list) -> dict:
    """A JSON object from its key-value pairs: a key given twice is refused,
    not read as its last value."""
    value = {}
    for key, item in pairs:
        if key in value:
            raise InputError(f"object repeats key {key!r}")
        value[key] = item
    return value


def _load(filename: str):
    try:
        with open(filename) as fh:
            return json.load(fh, object_pairs_hook=_object)
    # ValueError covers bad JSON or UTF-8, a repeated key and an integer too
    # long to convert.
    except (OSError, RecursionError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def read_json(filename: str, what: str, parse=lambda value: value):
    """`parse` of the JSON value in the file `filename`. A file that cannot
    be opened or decoded, or a value `parse` refuses, is an InputError whose
    message opens with `what` and the file name."""
    try:
        return parse(_load(filename))
    except InputError as exc:
        raise InputError(f"{what} {filename}: {exc}") from exc


@contextlib.contextmanager
def _writing(filename: str):
    """An OSError in the block, a full disk on close included, becomes an
    InputError naming `filename`."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {filename}: {exc}") from exc


def json_text(value) -> str:
    """The program's JSON format: 2-space indent, sorted keys and a final newline."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def write_json(filename: str, value) -> None:
    with _writing(filename), open(filename, "w") as fh:
        fh.write(json_text(value))


def write_csv(filename: str, header: Iterable, rows: Iterable[Iterable]) -> None:
    with _writing(filename), open(filename, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def make_dirs(dirname: str) -> None:
    with _writing(dirname):
        os.makedirs(dirname, exist_ok=True)


def check_writable(filename: str, directory: bool = False) -> None:
    """Refuse `filename` before a long run, not after it, when it cannot be
    written. A file is opened to append and a directory is made; whatever
    the probe made is removed again."""
    made, head = [], os.path.normpath(filename)
    while head and not os.path.lexists(head):
        made.append(head)
        head = os.path.dirname(head)
    with _writing(filename):
        if directory:
            os.makedirs(filename, exist_ok=True)
        else:
            open(filename, "a").close()
    for made_path in made:  # deepest first
        (os.rmdir if directory else os.remove)(made_path)
