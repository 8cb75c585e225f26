"""Size guards for operations with doubly exponential worst cases.

Any operation whose output ground set would exceed the point guard, or whose
topology would exceed the open-set guard, fails fast with SizeLimitExceeded
instead of hanging.  The open-set guard can be overridden by the environment
variable TOPOLAB_LIMIT_OPENS, a positive integer; explicit ``set_limits``
calls (e.g. from CLI flags) take precedence over the environment.  The open-set default, 2^20,
bounds what the command line writes: a space file lists every open as its
points, and the 2^20 opens of the discrete 20-point space take about 13 s
and 1.1 GiB to write on a 2-core host.  ``OPEN_COUNT_MEMO`` is a fixed
bound on the sub-masks ``FiniteSpace.open_count`` memoizes, with no flag:
counting the opens of a 5-point Vietoris hyperspace memoizes 2184
of them, and of the 64-point Sierpiński power 59542.
"""

from __future__ import annotations

import os

from .errors import SizeLimitExceeded, TopolabError

DEFAULT_MAX_POINTS = 1 << 20
DEFAULT_MAX_OPENS = 1 << 20
OPEN_COUNT_MEMO = 1 << 20

_explicit_points: int | None = None
_explicit_opens: int | None = None


def set_limits(points: int | None = None, opens: int | None = None) -> None:
    """Install explicit guards (None leaves a guard unchanged)."""
    global _explicit_points, _explicit_opens
    if points is not None:
        _explicit_points = points
    if opens is not None:
        _explicit_opens = opens


def reset_limits() -> None:
    global _explicit_points, _explicit_opens
    _explicit_points = None
    _explicit_opens = None


def max_points() -> int:
    return _explicit_points if _explicit_points is not None else DEFAULT_MAX_POINTS


def max_opens() -> int:
    if _explicit_opens is not None:
        return _explicit_opens
    env = os.environ.get("TOPOLAB_LIMIT_OPENS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise TopolabError(f"TOPOLAB_LIMIT_OPENS must be an integer, not {env!r}") from None
        if value < 1:
            raise TopolabError(f"TOPOLAB_LIMIT_OPENS must be at least 1, got {value}")
        return value
    return DEFAULT_MAX_OPENS


def guard_points(count: int, what: str = "ground set") -> None:
    if count > max_points():
        raise SizeLimitExceeded(
            f"{what} would have {count} points, over the limit {max_points()}"
        )
