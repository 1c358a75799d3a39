"""Clustering and coresets for polygonal curves under the continuous
and discrete Frechet distances, with brute-force oracles for
verification at desk scale."""

from .curves import Curve, CurveSet, pad_to_complexity
from .frechet import (
    FrechetResult,
    discrete_frechet,
    frechet_decision,
    frechet_distance,
    simplify,
)
from .clustering import (
    Clustering,
    Objective,
    PairwiseFrechet,
    cost,
    k_center_approx,
    k_median_approx,
    kl_center_approx,
)
from .coresets import (
    CoresetFailure,
    SamplingDistribution,
    WeightedCoreset,
    center_coreset_curves,
    center_coreset_segments,
    draw_sample,
    median_coreset,
    sample_size,
    sampling_distribution,
)
from .geometry import (
    Cube,
    Grid,
    Motion,
    align_to_last_axis,
    axisangle,
    centroid,
    euclidean,
    grid_cell_of,
    rotate,
    translate,
)

__version__ = "0.1.0"
