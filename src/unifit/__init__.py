"""unifit: fitting unimodal rise-and-fall time series.

Five peak-normalized model families on the unit interval (two derived
from the maximum entropy principle, three classical references), a
multi-start Levenberg-Marquardt least-squares fitter, a numerical entropy
audit, a synthetic cross-fitting benchmark, and CSV/JSON/SVG plumbing
behind a deterministic CLI.
"""

__version__ = "0.1.0"

from .models import (  # noqa: E402
    KIND_ORDER,
    CurveModel,
    ModelKind,
    ParameterBoundsError,
    SampledSeries,
    ShapeParams,
    evaluate,
    evaluate_on,
    mode,
    sample_series,
    shape_value,
)
from .fitting import (  # noqa: E402
    FitConfig,
    FitFailureError,
    FitResult,
    fit,
    rms_loss,
)
from .entropy import (  # noqa: E402
    AuditReport,
    QuadratureSpec,
    UnsupportedFamilyError,
    constraint_integrals,
    entropy_of,
    perturbation_audit,
)
from .bench import (  # noqa: E402
    BenchConfig,
    CellStats,
    CrossTable,
    GenerationError,
    cross_compare,
    parse_table,
    render_table,
    sample_generator_params,
)
from .dataio import (  # noqa: E402
    BUNDLED_DATASETS,
    DomainTransform,
    RawSeries,
    SeriesFormatError,
    bundled_dataset_path,
    denormalize_fit,
    denormalize_series,
    load_series,
    normalize,
    read_fit,
    write_fit,
)

__all__ = [
    "__version__",
    # models
    "KIND_ORDER",
    "CurveModel",
    "ModelKind",
    "ParameterBoundsError",
    "SampledSeries",
    "ShapeParams",
    "evaluate",
    "evaluate_on",
    "mode",
    "sample_series",
    "shape_value",
    # fitting
    "FitConfig",
    "FitFailureError",
    "FitResult",
    "fit",
    "rms_loss",
    # entropy
    "AuditReport",
    "QuadratureSpec",
    "UnsupportedFamilyError",
    "constraint_integrals",
    "entropy_of",
    "perturbation_audit",
    # bench
    "BenchConfig",
    "CellStats",
    "CrossTable",
    "GenerationError",
    "cross_compare",
    "parse_table",
    "render_table",
    "sample_generator_params",
    # dataio
    "BUNDLED_DATASETS",
    "DomainTransform",
    "RawSeries",
    "SeriesFormatError",
    "bundled_dataset_path",
    "denormalize_fit",
    "denormalize_series",
    "load_series",
    "normalize",
    "read_fit",
    "write_fit",
]
