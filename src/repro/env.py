"""Reading numeric settings from the environment.

A few knobs (worker count, task timeout, checkpoint interval) can be
set through ``REPRO_*`` environment variables.  :func:`env_number` is
the one parser they share.
"""

from __future__ import annotations

import os

__all__ = ["env_number"]


def env_number(name: str, cast, default, error_cls):
    """The environment variable *name* parsed with *cast* (``int`` or
    ``float``), or *default* when it is unset or blank.

    A value *cast* rejects raises *error_cls* naming the variable, so
    each caller keeps its own error type.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return cast(raw)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise error_cls(f"{name}={raw!r} is not {kind}") from None
