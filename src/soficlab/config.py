"""Global size caps, overridable through environment variables."""

import os

from .errors import SchemaError


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise SchemaError(f"{name}={raw!r} is not an integer") from None


def ball_cap() -> int:
    return _env_int("SOFICLAB_BALL_CAP", 1_000_000)


def exact_partition_cap() -> int:
    return _env_int("SOFICLAB_EXACT_CAP", 24)
