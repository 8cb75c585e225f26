"""JSON formats for spaces and reports, and the command line's one reader and one writer.

Space file: {"n": <int>, "opens": [[<point ints>], ...]}.  The empty set is
[]; member order is irrelevant on input and canonicalized on output (opens
sorted by mask, points ascending), so re-serialization is byte-stable.

Every JSON input of the command line (space files, family files, the
``--generate-subbase`` string) goes through ``read_json``, and every output
through ``write_canonical``, its file first probed by ``check_writable``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Any, Callable

from . import limits
from .bitsets import mask_of, points_of
from .errors import TopolabError
from .spaces import FiniteSpace, make_space


def space_to_dict(space: FiniteSpace) -> dict:
    return {
        "n": space.n,
        "opens": [list(points_of(o)) for o in space.opens],
    }


def is_point(p, n: int) -> bool:
    """p is an index of an n-point ground set; JSON booleans are not."""
    return isinstance(p, int) and not isinstance(p, bool) and 0 <= p < n


def point_masks(entries, n: int, what: str, nonempty: bool = False) -> tuple[int, ...]:
    """The masks of ``entries``, a JSON list of point lists on n points (each non-empty when ``nonempty``).

    Any other value raises ValueError naming ``what``.
    """
    if not isinstance(entries, list) or not all(
        isinstance(entry, list) and (entry or not nonempty) and all(is_point(p, n) for p in entry)
        for entry in entries
    ):
        kind = "non-empty point lists" if nonempty else "point lists"
        raise ValueError(f"{what} must be a list of {kind} on {n} points")
    return tuple(mask_of(entry) for entry in entries)


def space_from_dict(data: dict) -> FiniteSpace:
    if not isinstance(data, dict) or "n" not in data or "opens" not in data:
        raise ValueError("space file needs 'n' and 'opens'")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError("'n' must be a non-negative integer")
    limits.guard_points(n, "space file")
    return make_space(n, point_masks(data["opens"], n, "'opens'"))


def read_json(source, role: str, decode: Callable[[Any], Any], literal: bool = False) -> Any:
    """``decode`` of the JSON value in file ``source``, or in the string ``source`` itself when ``literal``.

    A file is read as bytes, so ``json`` tells UTF-8, -16 and -32 apart and
    the locale plays no part.  Invalid JSON, undecodable bytes, nesting past
    the recursion limit and a ValueError of ``decode`` all raise one
    TopolabError that names ``role``; OSError and other TopolabErrors pass.
    """
    try:
        return decode(json.loads(source if literal else Path(source).read_bytes()))
    except (ValueError, RecursionError) as exc:
        raise TopolabError(f"{role}: {exc}") from exc


def load_space(path) -> FiniteSpace:
    """The space in file ``path``: TopolabError if malformed, NotATopology if its opens are no topology."""
    return read_json(path, f"malformed space file {path}", space_from_dict)


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def check_writable(path=None) -> None:
    """Open file ``path``, if given, for appending, so an unwritable output raises OSError before the work.

    A file the probe makes is removed, and an existing one is not truncated.
    """
    if not path:
        return
    existed = os.path.lexists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def write_canonical(obj: Any, path=None) -> None:
    """Write ``obj`` as canonical JSON to file ``path``, or to standard output when no path is given."""
    text = dumps_canonical(obj)
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)
