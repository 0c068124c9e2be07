#!/usr/bin/env python3
"""A guided tour of AMbER's internals: multigraph, dictionaries and indexes.

The paper's contribution is not only the matching algorithm but the data
representation around it — the attributed multigraph (Section 2), the
dictionary encoding (Table 2), the vertex signatures and synopses (Table 3)
and the index ensemble I = {A, S, N} (Section 4).  This example rebuilds
all of those artefacts for the paper's own running example and prints them,
which is useful both for learning the system and for debugging query plans.

Run with::

    python examples/multigraph_inspection.py
"""

from repro.amber.decompose import decompose_query, order_core_vertices
from repro.index import IndexSet, data_synopsis, signature_of
from repro.multigraph import build_data_multigraph, build_query_multigraph
from repro.rdf import parse_turtle
from repro.sparql import parse_sparql

DATA = """
@prefix x: <http://dbpedia.org/resource/> .
@prefix y: <http://dbpedia.org/ontology/> .

x:London y:isPartOf x:England .
x:England y:hasCapital x:London .
x:Christopher_Nolan y:wasBornIn x:London .
x:Christopher_Nolan y:livedIn x:England .
x:Christopher_Nolan y:isPartOf x:Dark_Knight_Trilogy .
x:London y:hasStadium x:WembleyStadium .
x:WembleyStadium y:hasCapacityOf "90000" .
x:Amy_Winehouse y:wasBornIn x:London .
x:Amy_Winehouse y:diedIn x:London .
x:Amy_Winehouse y:wasPartOf x:Music_Band .
x:Music_Band y:hasName "MCA_Band" .
x:Music_Band y:foundedIn "1994" .
x:Music_Band y:wasFormedIn x:London .
x:Amy_Winehouse y:livedIn x:United_States .
x:Amy_Winehouse y:wasMarriedTo x:Blake_Fielder-Civil .
x:Blake_Fielder-Civil y:livedIn x:United_States .
"""

QUERY = """
PREFIX x: <http://dbpedia.org/resource/>
PREFIX y: <http://dbpedia.org/ontology/>
SELECT * WHERE {
  ?X0 y:livedIn ?X1 .
  ?X1 y:isPartOf ?X2 .
  ?X2 y:hasCapital ?X1 .
  ?X1 y:hasStadium ?X4 .
  ?X3 y:wasBornIn ?X1 .
  ?X3 y:diedIn ?X1 .
  ?X3 y:wasMarriedTo ?X6 .
  ?X3 y:wasPartOf ?X5 .
  ?X5 y:wasFormedIn ?X1 .
  ?X4 y:hasCapacityOf "90000" .
  ?X5 y:hasName "MCA_Band" .
  ?X3 y:livedIn x:United_States .
}
"""


def shorten(iri) -> str:
    return str(iri).rsplit("/", 1)[-1]


def main() -> None:
    triples = parse_turtle(DATA)
    data = build_data_multigraph(triples)
    graph, dictionaries = data.graph, data.dictionaries

    print("=== Dictionaries (Table 2) ===")
    print("Vertices:")
    for entity, identifier in dictionaries.vertices.items():
        print(f"  v{identifier}: {shorten(entity)}")
    print("Edge types:")
    for predicate, identifier in dictionaries.edge_types.items():
        print(f"  t{identifier}: {shorten(predicate)}")
    print("Attributes:")
    for (predicate, literal), identifier in dictionaries.attributes.items():
        print(f"  a{identifier}: <{shorten(predicate)}, \"{literal}\">")

    print("\n=== Data multigraph (Figure 1c) ===")
    for source, target, types in sorted(graph.edges()):
        labels = ", ".join(f"t{t}" for t in sorted(types))
        print(f"  v{source} -> v{target}  {{{labels}}}")
    for vertex in sorted(graph.vertices()):
        attributes = graph.attributes(vertex)
        if attributes:
            print(f"  v{vertex} attributes: {sorted(attributes)}")

    print("\n=== Vertex signatures and synopses (Table 3) ===")
    for vertex in sorted(graph.vertices()):
        signature = signature_of(graph, vertex)
        synopsis = data_synopsis(signature)
        compact = tuple(int(f) for f in synopsis)
        print(f"  v{vertex} ({shorten(data.entity(vertex))}): synopsis {compact}")

    print("\n=== Index ensemble I = {A, S, N} (Section 4) ===")
    indexes = IndexSet.build(data)
    assert indexes.report is not None
    print(f"  attribute index: {indexes.attributes.attribute_count()} attributes, "
          f"{indexes.attributes.memory_items()} postings")
    print(f"  signature index: {len(indexes.signatures)} synopses, one matrix row each")
    print(f"  neighbourhood index: {indexes.neighborhoods.posting_entries()} postings "
          "(each typed edge once per direction)")

    print("\n=== Query decomposition (Figures 2 and 4) ===")
    query = parse_sparql(QUERY)
    qgraph = build_query_multigraph(query, data)
    decomposition = decompose_query(qgraph)
    order = order_core_vertices(qgraph, decomposition)
    print("  core vertices:     ", [str(qgraph.variable_of(u)) for u in decomposition.core])
    print("  satellite vertices:", [str(qgraph.variable_of(u)) for u in decomposition.satellites])
    print("  processing order:  ", [str(qgraph.variable_of(u)) for u in order])
    for core in decomposition.core:
        satellites = decomposition.satellites_of.get(core, [])
        if satellites:
            print(f"    {qgraph.variable_of(core)} carries satellites "
                  f"{[str(qgraph.variable_of(s)) for s in satellites]}")


if __name__ == "__main__":
    main()
