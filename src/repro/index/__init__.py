"""Index structures ``I = {A, S, N}`` (Section 4 of the paper)."""

from .attribute_index import AttributeIndex
from .manager import IndexBuildReport, IndexSet, build_indexes
from .neighborhood import NeighborhoodIndex, Otil, OtilNode
from .signature_index import SignatureIndex
from .synopsis import (
    SYNOPSIS_FIELDS,
    VertexSignature,
    data_synopsis,
    dominates,
    query_synopsis,
    side_features,
    signature_of,
)

__all__ = [
    "AttributeIndex",
    "SignatureIndex",
    "NeighborhoodIndex",
    "Otil",
    "OtilNode",
    "IndexSet",
    "IndexBuildReport",
    "build_indexes",
    "SYNOPSIS_FIELDS",
    "VertexSignature",
    "signature_of",
    "side_features",
    "data_synopsis",
    "query_synopsis",
    "dominates",
]
