"""JSON formats for spaces and reports.

Space file: {"n": <int>, "opens": [[<point ints>], ...]}.  The empty set is
[]; member order is irrelevant on input and canonicalized on output (opens
sorted by mask, points ascending), so re-serialization is byte-stable.
"""

from __future__ import annotations

import json
from typing import Any

from . import limits
from .bitsets import mask_of, points_of
from .spaces import FiniteSpace, make_space


def space_to_dict(space: FiniteSpace) -> dict:
    return {
        "n": space.n,
        "opens": [list(points_of(o)) for o in space.opens],
    }


def is_point(p, n: int) -> bool:
    """p is an index of an n-point ground set; JSON booleans are not."""
    return isinstance(p, int) and not isinstance(p, bool) and 0 <= p < n


def space_from_dict(data: dict) -> FiniteSpace:
    if not isinstance(data, dict) or "n" not in data or "opens" not in data:
        raise ValueError("space file needs 'n' and 'opens'")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError("'n' must be a non-negative integer")
    limits.guard_points(n, "space file")
    if not isinstance(data["opens"], list):
        raise ValueError("'opens' must be a list of point lists")
    opens = []
    for entry in data["opens"]:
        if not isinstance(entry, list) or not all(is_point(p, n) for p in entry):
            raise ValueError(f"open set {entry!r} does not fit the ground set")
        opens.append(mask_of(entry))
    return make_space(n, opens)


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def save_space(space: FiniteSpace, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(space_to_dict(space)))


def load_space(path) -> FiniteSpace:
    with open(path) as fh:
        return space_from_dict(json.load(fh))
