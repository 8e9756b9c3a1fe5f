// Durable storage for the property-graph store: a whole store as one
// binary graph snapshot.
//
// A snapshot is a graph file of the record codec in graph/record_io.h: one
// segment covering nodes [0, n) without in-lists — a header, the store's
// key, label and edge-type tables, one record per node (label and typed
// properties), one out-list per node, and a trailer with the node and edge
// counts, all in CRC-32-checked frames. Segment spill files and checkpoint
// segments are the same format with in-lists (graph/segment.h).
//
// Loading is the store's bulk install (GraphStore::Install): under one
// write lock the file's key table is mapped once, node records go straight
// into pre-sized columns and exactly reserved bags, out-lists into exactly
// sized vectors, in-lists are derived from them in node order, and indexes
// the store declared beforehand are backfilled once. Saving emits each
// node record from the stored values under one shared lock. Corrupt input
// — a cut at any byte, a flipped byte, a forged id or count, a frame
// length past the end, a JSON-lines file of earlier versions — raises
// HorusError naming the byte offset; the partly loaded store is then to be
// discarded.
//
// This gives stored executions a life beyond the process — traces can be
// captured once and re-analyzed later or shipped elsewhere, the same role
// Neo4j's on-disk store plays for the paper's deployment.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph_store.h"

namespace horus::graph {

/// Serializes the entire store under one shared lock, faulting in evicted
/// segments first. Deterministic output (node order, store table order,
/// properties in key order).
void save_graph(const GraphStore& store, std::ostream& out);
void save_graph_file(const GraphStore& store, const std::string& path);

/// Loads a snapshot into `store`, which must hold no nodes and have no
/// segments enabled (throws std::logic_error otherwise); keys, labels, edge
/// types, columns and indexes it already has are kept and used. Corrupt or
/// truncated input raises HorusError.
void load_graph(GraphStore& store, std::istream& in);
void load_graph_file(GraphStore& store, const std::string& path);

}  // namespace horus::graph
