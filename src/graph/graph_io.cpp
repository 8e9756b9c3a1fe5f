#include "graph/graph_io.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.h"
#include "graph/record_io.h"

namespace horus::graph {

namespace {

void load_snapshot(GraphStore& store, std::istream& in,
                   const std::string& what) {
  if (store.node_count() != 0) {
    throw std::logic_error("graph io: load target must be empty");
  }
  GraphFileReader reader(in, what, GraphFileKind::kSnapshot);
  const GraphFileTables& tables = reader.tables();
  const std::uint32_t n = reader.header().count;

  std::vector<PropKeyId> key_map;
  key_map.reserve(tables.keys.size());
  for (const std::string& name : tables.keys) {
    key_map.push_back(store.intern_prop_key(name));
  }
  std::vector<EdgeTypeId> type_map;
  type_map.reserve(tables.edge_types.size());
  for (const std::string& name : tables.edge_types) {
    type_map.push_back(store.intern_edge_type(name));
  }

  std::uint32_t label = 0;
  PropertyList props;
  for (std::uint32_t i = 0; i < n; ++i) {
    reader.next_node(label, props);
    for (auto& entry : props) entry.first = key_map[entry.first];
    try {
      store.add_node_typed(tables.labels[label], std::move(props));
    } catch (const std::logic_error& e) {
      // A value the store refuses, such as a number under an interned
      // string column.
      reader.fail(std::string("node rejected by the store (") + e.what() +
                  ")");
    }
  }
  std::vector<FileEdge> out;
  for (NodeId v = 0; v < n; ++v) {
    reader.next_adjacency(out, nullptr);
    for (const FileEdge& e : out) {
      store.add_edge_typed(v, e.peer, type_map[e.type]);
    }
  }
  reader.finish();
}

}  // namespace

void save_graph(const GraphStore& store, std::ostream& out) {
  GraphFileHeader header;
  header.kind = GraphFileKind::kSnapshot;
  header.count = static_cast<std::uint32_t>(store.node_count());
  header.edges = store.edge_count();
  GraphFileTables tables;
  const std::size_t key_count = store.prop_key_count();
  tables.keys.reserve(key_count);
  for (PropKeyId k = 0; k < key_count; ++k) {
    tables.keys.push_back(store.prop_key_name(k));
  }
  tables.labels = store.label_names();
  tables.edge_types = store.edge_type_names();

  GraphFileWriter writer(out, header, tables);
  for (NodeId v = 0; v < header.count; ++v) {
    writer.node(store.node_label_id(v), store.node_property_list(v));
  }
  for (NodeId v = 0; v < header.count; ++v) {
    writer.adjacency(store.out_edges(v));
  }
  writer.finish();
}

void save_graph_file(const GraphStore& store, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw HorusError("graph io: cannot open " + path);
  save_graph(store, out);
}

void load_graph(GraphStore& store, std::istream& in) {
  load_snapshot(store, in, "snapshot");
}

void load_graph_file(GraphStore& store, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw HorusError("graph io: cannot open " + path);
  load_snapshot(store, in, path);
}

}  // namespace horus::graph
