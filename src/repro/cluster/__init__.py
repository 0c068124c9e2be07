"""Sharded multigraph partitioning and scatter–gather querying.

The cluster subsystem partitions the matching layer across shards:

* :func:`partition_data` splits a :class:`~repro.multigraph.builder.DataMultigraph`
  into N shards with degree-aware hash ownership and 1-hop halo replication;
* :class:`ShardedEngine` exposes the single-engine query/count/prepare API,
  scattering star subqueries over the shards on the request's thread and
  hash-joining the partial embeddings on shared query vertices;
* :class:`~repro.cluster.mutation.ClusterMutator` routes SPARQL UPDATE
  triples to their owning shards, keeping halo replicas consistent.

See the README's Architecture section and ``python -m repro.server --shards``.
"""

from .engine import ClusterCatalog, ShardedEngine
from .mutation import ClusterMutator
from .partition import ShardedData, assign_owners, default_owner, partition_data
from .scatter import StarMatch, StarQuery, match_star, plan_stars

__all__ = [
    "ClusterCatalog",
    "ClusterMutator",
    "ShardedData",
    "ShardedEngine",
    "StarMatch",
    "StarQuery",
    "assign_owners",
    "default_owner",
    "match_star",
    "partition_data",
    "plan_stars",
]
