"""Loading real-world series, mapping them onto the unit domain, and
persisting fit results.

Input files are comma-separated "time,value" rows with optional '#'
comments, blank lines and a single optional header line.  Normalization
insets the time span by a configurable padding so the data occupy
[padding, 1 - padding]: the maximum entropy shapes vanish exactly at the
unit-interval endpoints while real series rarely do.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .fitting import FitResult
from .models import CurveModel, ModelKind, SampledSeries, ShapeParams, sample_series

__all__ = [
    "RawSeries",
    "DomainTransform",
    "SeriesFormatError",
    "FitDocument",
    "load_series",
    "normalize",
    "denormalize_series",
    "denormalize_fit",
    "write_fit",
    "read_fit",
    "bundled_dataset_path",
    "BUNDLED_DATASETS",
]

#: Names of the example datasets shipped with the package.
BUNDLED_DATASETS = ("universe25", "st_matthew")


class SeriesFormatError(ValueError):
    """Malformed input table (carries a 1-based line number when known)."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


@dataclass(frozen=True)
class RawSeries:
    """A time series in original units (times strictly increasing)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if times.ndim != 1 or values.ndim != 1 or times.size != values.size:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if not (np.isfinite(times).all() and np.isfinite(values).all()):
            raise ValueError("times and values must be finite")
        if times.size >= 2 and not (np.diff(times) > 0).all():
            raise ValueError("times must be strictly increasing")
        if (values < 0).any():
            raise ValueError("values must be nonnegative")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class DomainTransform:
    """Affine map between original units and the unit fitting domain."""

    t_min: float
    t_max: float
    y_scale: float

    def __post_init__(self) -> None:
        if not self.t_max > self.t_min:
            raise ValueError(f"t_max must exceed t_min, got [{self.t_min}, {self.t_max}]")
        if not self.y_scale > 0:
            raise ValueError(f"y_scale must be > 0, got {self.y_scale}")

    def to_unit_time(self, t):
        return (np.asarray(t, dtype=float) - self.t_min) / (self.t_max - self.t_min)

    def from_unit_time(self, x):
        return self.t_min + np.asarray(x, dtype=float) * (self.t_max - self.t_min)


def _parse_rows(text: str):
    rows = []
    header_allowed = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        parsed = None
        if len(parts) == 2:
            try:
                parsed = (float(parts[0]), float(parts[1]))
            except ValueError:
                parsed = None
        if parsed is None:
            if header_allowed:
                header_allowed = False  # tolerate one leading header line
                continue
            raise SeriesFormatError(
                f"line {lineno}: expected 'time,value', got {raw!r}", lineno
            )
        header_allowed = False
        t, v = parsed
        if not (math.isfinite(t) and math.isfinite(v)):
            raise SeriesFormatError(f"line {lineno}: non-finite entry {raw!r}", lineno)
        if v < 0:
            raise SeriesFormatError(f"line {lineno}: negative value {v!r}", lineno)
        rows.append((t, v))
    return rows


def load_series(source) -> RawSeries:
    """Read a 'time,value' table from a path, text or binary stream.

    Rows are sorted by time; duplicate times, unparseable rows and tables
    with fewer than 3 rows are rejected.
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
            if isinstance(text, bytes):
                text = text.decode("utf-8-sig")
            text = text.removeprefix("\ufeff")
        elif isinstance(source, bytes):
            text = source.decode("utf-8-sig")
        else:
            text = Path(source).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise SeriesFormatError(f"input is not UTF-8 text: {exc}") from exc

    rows = _parse_rows(text)
    if len(rows) < 3:
        raise SeriesFormatError(f"need at least 3 data rows, got {len(rows)}")
    rows.sort(key=lambda tv: tv[0])
    times = [t for t, _ in rows]
    for prev, cur in zip(times, times[1:]):
        if cur == prev:
            raise SeriesFormatError(f"duplicate time {prev!r}")
    return RawSeries(np.array(times), np.array([v for _, v in rows]))


def normalize(raw: RawSeries, padding: float = 0.02) -> tuple[SampledSeries, DomainTransform]:
    """Map the series onto the unit domain with max(ys) = 1.

    The observed time span is inset to [padding, 1 - padding]; values are
    divided by their maximum.
    """
    if not 0.0 <= padding < 0.5:
        raise ValueError(f"padding must lie in [0, 0.5), got {padding}")
    if len(raw) < 2:
        raise ValueError("need at least 2 points to normalize")
    y_scale = float(raw.values.max())
    if y_scale <= 0.0:
        raise ValueError("all values are zero; y scale is undefined")
    t_first = float(raw.times[0])
    t_last = float(raw.times[-1])
    pad_t = padding * (t_last - t_first) / (1.0 - 2.0 * padding)
    t_min, t_max = t_first - pad_t, t_last + pad_t
    if not math.isfinite(t_max - t_min):
        raise ValueError(
            f"time span [{t_first!r}, {t_last!r}], padded to "
            f"[{t_min!r}, {t_max!r}], overflows float64"
        )
    transform = DomainTransform(t_min, t_max, y_scale)
    xs = transform.to_unit_time(raw.times)
    return SampledSeries(np.clip(xs, 0.0, 1.0), raw.values / y_scale), transform


def denormalize_series(series: SampledSeries, transform: DomainTransform) -> RawSeries:
    """Map a unit-domain series back to original units; ``ValueError`` when
    a value overflows there."""
    with np.errstate(over="ignore"):  # RawSeries rejects the overflow
        return RawSeries(transform.from_unit_time(series.xs), series.ys * transform.y_scale)


def denormalize_fit(result: FitResult, transform: DomainTransform, grid_size: int) -> RawSeries:
    """Evaluate the fitted model on a uniform grid in original units."""
    return denormalize_series(sample_series(result.model, grid_size), transform)


@dataclass(frozen=True)
class FitDocument:
    """The persisted form of a fit: model, transform and diagnostics."""

    model: CurveModel
    transform: DomainTransform
    rms_normalized: float
    rms_original: float
    starts: int
    iterations_used: int
    converged: bool
    version: str


def write_fit(result: FitResult, transform: DomainTransform, path) -> None:
    """Write the fit as deterministic JSON.

    Keys appear in a fixed order (model, parameters, amplitude,
    rms_normalized, rms_original, transform, optimizer, version) with no
    timestamps, so identical fits produce byte-identical documents.
    """
    params = result.model.params
    doc = {
        "model": params.kind.value,
        "parameters": {name: val for name, val in params.named().items()},
        "amplitude": result.model.amplitude,
        "rms_normalized": result.rms,
        "rms_original": result.rms * transform.y_scale,
        "transform": {
            "t_min": transform.t_min,
            "t_max": transform.t_max,
            "y_scale": transform.y_scale,
        },
        "optimizer": {
            "starts": len(result.start_losses),
            "iterations_used": result.iterations_used,
            "converged": result.converged,
        },
        "version": __version__,
    }
    text = json.dumps(doc, indent=2) + "\n"
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write fit document to {path}: {exc}") from exc


_JSON_TYPES = {
    str: "a string", dict: "an object", float: "a number", int: "an integer", bool: "true or false"
}


def _field(doc: dict, key: str, kind: type, where: str = "", least: float | None = None):
    """``doc[key]`` checked for its JSON type, finiteness and ``least``; floats as float."""
    name = where + key
    if key not in doc:
        raise SeriesFormatError(f"fit document has no key {name!r}")
    value = doc[key]
    if kind in (int, float):
        # JSON true/false load as bool, a subclass of int
        ok = isinstance(value, (int, kind)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise SeriesFormatError(
            f"fit document key {name!r} must be {_JSON_TYPES[kind]}, got {type(value).__name__}"
        )
    if kind is float:
        try:
            value = float(value)
        except OverflowError:
            raise SeriesFormatError(f"fit document key {name!r} is out of float range") from None
        # json reads NaN and Infinity, which write_fit never writes
        if not math.isfinite(value):
            raise SeriesFormatError(f"fit document key {name!r} must be finite, got {value!r}")
    if least is not None and value < least:
        raise SeriesFormatError(f"fit document key {name!r} must be >= {least}, got {value!r}")
    return value


def read_fit(path) -> FitDocument:
    """Read back a document produced by ``write_fit``.

    A document that is not a JSON object, or lacks a key or has a value
    ``write_fit`` never writes (a wrong JSON type, a non-finite number, a
    negative rms or count, no start), raises ``SeriesFormatError`` naming it,
    as does one that is not UTF-8 text or not JSON.
    """
    try:
        if hasattr(path, "read"):
            doc = json.load(path)
        else:
            with io.open(Path(path), "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SeriesFormatError(f"fit document is not UTF-8 JSON text: {exc}") from exc
    if not isinstance(doc, dict):
        raise SeriesFormatError(f"fit document must be a JSON object, got {type(doc).__name__}")
    kind = ModelKind.from_string(_field(doc, "model", str))
    params = _field(doc, "parameters", dict)
    values = tuple(_field(params, name, float, "parameters.") for name in kind.param_names)
    model = CurveModel(ShapeParams(kind, values), _field(doc, "amplitude", float))
    tr = _field(doc, "transform", dict)
    opt = _field(doc, "optimizer", dict)
    return FitDocument(
        model=model,
        transform=DomainTransform(
            *(_field(tr, key, float, "transform.") for key in ("t_min", "t_max", "y_scale"))
        ),
        rms_normalized=_field(doc, "rms_normalized", float, least=0.0),
        rms_original=_field(doc, "rms_original", float, least=0.0),
        starts=_field(opt, "starts", int, "optimizer.", least=1),
        iterations_used=_field(opt, "iterations_used", int, "optimizer.", least=0),
        converged=_field(opt, "converged", bool, "optimizer."),
        version=_field(doc, "version", str),
    )


def bundled_dataset_path(name: str) -> Path:
    """Filesystem path of a bundled example dataset (.csv)."""
    if name not in BUNDLED_DATASETS:
        raise ValueError(f"unknown dataset {name!r} (available: {BUNDLED_DATASETS})")
    return Path(str(resources.files(__package__) / "data" / f"{name}.csv"))
