"""Percentiles, metric names, seeds and digests used across the benchmark."""

from __future__ import annotations

import hashlib
import re
import statistics

#: A percentile is reported only with at least this many samples above it.
MIN_TAIL = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not _NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    if not _UNIT.fullmatch(unit):
        raise ValueError(f"bad metric unit {unit!r}")
    return unit


def tail_level(n: int, cap: int = 95) -> int:
    """Highest whole percentile up to ``cap`` that leaves at least
    MIN_TAIL of ``n`` samples ranked above it (nearest-rank rule)."""
    for q in range(cap, 0, -1):
        rank = -(-q * n // 100)  # ceil(q * n / 100)
        if n - rank >= MIN_TAIL:
            return q
    raise ValueError(f"{n} samples leave fewer than {MIN_TAIL} above every percentile")


def percentile(values, q: int) -> float:
    """Nearest-rank percentile: the ceil(q * n / 100)-th smallest value."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]


def median(values) -> float:
    return float(statistics.median(values))


def subseed(*parts) -> int:
    """Non-negative 63-bit seed derived from the given parts."""
    text = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little") >> 1


def sha256_hex(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()
