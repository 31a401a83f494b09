"""LlamaTune core: projections, special-value biasing, bucketization, pipeline."""

from repro.core.biasing import SpecialValueBiaser
from repro.core.bucketization import bucketize_space, bucketized_fraction
from repro.core.pipeline import (
    IdentityAdapter,
    LlamaTuneAdapter,
    SearchSpaceAdapter,
    SubspaceAdapter,
    llamatune_adapter,
)
from repro.core.projections import (
    HeSBOProjection,
    LinearProjection,
    REMBOProjection,
    make_projection,
)

__all__ = [
    "HeSBOProjection",
    "IdentityAdapter",
    "LinearProjection",
    "LlamaTuneAdapter",
    "REMBOProjection",
    "SearchSpaceAdapter",
    "SpecialValueBiaser",
    "SubspaceAdapter",
    "bucketize_space",
    "bucketized_fraction",
    "llamatune_adapter",
    "make_projection",
]
