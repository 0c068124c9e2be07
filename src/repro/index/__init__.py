"""Index structures ``I = {A, S, N}`` (Section 4 of the paper)."""

from .attribute_index import AttributeIndex
from .columnar import ColumnarEdges
from .manager import IndexBuildReport, IndexSet, build_indexes
from .signature_index import SignatureIndex
from .synopsis import (
    SYNOPSIS_FIELDS,
    VertexSignature,
    data_synopsis,
    dominates,
    query_synopsis,
    side_features,
    signature_of,
    vertex_synopsis,
)

__all__ = [
    "AttributeIndex",
    "SignatureIndex",
    "ColumnarEdges",
    "IndexSet",
    "IndexBuildReport",
    "build_indexes",
    "SYNOPSIS_FIELDS",
    "VertexSignature",
    "signature_of",
    "side_features",
    "data_synopsis",
    "vertex_synopsis",
    "query_synopsis",
    "dominates",
]
