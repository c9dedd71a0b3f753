"""Actigraphy activity features, sigmoidal cosinor fitting, and rank-based
group comparison."""

from .cosinor import (
    FitConfig,
    LinearCosinorFit,
    SigmoidalCosinorFit,
    antilogistic,
    export_fitted_curve,
    fit_linear_cosinor,
    fit_sigmoidal_cosinor,
    initial_sigmoidal_params,
    model_value,
)
from .errors import ActirhythmError, DataError
from .features import (
    ActivityFeatures,
    FeatureConfig,
    MinuteProfile,
    compute_features,
    immobile_minutes,
    minute_profile,
    relative_amplitude,
    rmssd,
    window_extreme,
)
from .ingest import (
    GROUP_ORDER,
    CohortManifest,
    GroupLabel,
    SynthSpec,
    TriaxialSeries,
    aggregate_to_minutes,
    generate_synthetic,
    load_manifest,
    parse_triaxial_csv,
    serialize_triaxial_csv,
)
from .nls import (
    NlsResult,
    ResidualProblem,
    Termination,
    levenberg_marquardt,
    linear_least_squares,
)
from .preprocess import (
    ActivitySeries,
    NonwearBout,
    detect_nonwear_bouts,
    filter_invalid_days,
    select_analysis_window,
    to_activity_series,
    vector_magnitude,
)
from .report import (
    GroupCurve,
    PipelineConfig,
    group_average_curve,
    render_curves_svg,
    run_pipeline,
)
from .stats import (
    GroupSamples,
    KwResult,
    PairwiseFlags,
    chi_square_sf,
    feature_table,
    kruskal_wallis,
    median_iqr,
    pairwise_dunn,
    pairwise_ranksum,
    ranks_with_ties,
)

__version__ = "0.1.0"
