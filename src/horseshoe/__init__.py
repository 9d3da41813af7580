"""Numerical machinery for strip maps with contracted fibers.

The package builds piecewise hyperbolic skew products on the unit square,
estimates the invariant density of their expanding base factor, lifts it to
a two-dimensional invariant-measure estimate, and evaluates the geometric
conditions (strip fatness, pairwise transversality, distortion constants,
and the fiberwise L2 overlap criterion) that decide whether the lifted
measure is absolutely continuous.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetError,
    CacheError,
    ConfigError,
    DegenerateExtensionError,
    DegenerateScaleError,
    HorseshoeError,
    ItineraryError,
    OutOfDomainError,
    ParameterError,
    ResolutionError,
    SampleDiscardError,
    StageError,
)
from .maps import (
    FiberMap,
    GhmSpec,
    HyperbolicityReport,
    SkewBranch,
    affine_fiber,
    apply_branch,
    branch_derivative,
    make_affine_example,
    make_baker,
    make_custom_skew,
    validate_hyperbolicity,
)
from .symbolic import (
    MInventory,
    cylinder_diameter,
    cylinder_table,
    fiber_image,
    load_inventory,
    m_inventory,
    save_inventory,
)
from .measures import (
    CriterionTable,
    Density1D,
    SrbEstimate,
    density_grid,
    lift_srb,
    load_srb,
    save_srb,
    tsujii_criterion,
    ulam_acip,
    ulam_transition,
)
from .conditions import (
    FatnessFit,
    NtrSumReport,
    NtrSweep,
    TransversalityVerdict,
    classify_transversal,
    fatness_fit,
    manifold_envelope,
    ntr_sum,
    ntr_sweep,
    overlap_volume,
    tail_slope_hull,
)
from .diagnostics import (
    DiagnosticsReport,
    adapted_derivative,
    margin_constants,
    run_diagnostics,
    unstable_direction,
)
from .figures import emit_strip_polygons, strip_polygons
from .cli import RunConfig, RunManifest, run_pipeline

__all__ = [name for name in dir() if not name.startswith("_")]
