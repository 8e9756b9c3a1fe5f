#include "graph/graph_io.h"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/error.h"
#include "common/json.h"

namespace horus::graph {

namespace {

Json property_to_json(const PropertyValue& v) {
  if (const auto* b = std::get_if<bool>(&v)) return Json(*b);
  if (const auto* i = std::get_if<std::int64_t>(&v)) return Json(*i);
  if (const auto* d = std::get_if<double>(&v)) return Json(*d);
  if (const auto* s = std::get_if<std::string>(&v)) return Json(*s);
  return Json();
}

PropertyValue property_from_json(const Json& j) {
  if (j.is_bool()) return j.as_bool();
  if (j.is_int()) return j.as_int();
  if (j.is_double()) return j.as_double();
  if (j.is_string()) return j.as_string();
  return std::monostate{};
}

/// Reads snapshot lines while tracking line numbers and a running CRC of
/// everything consumed so far. Every load error can then name the offending
/// line, and the integrity trailer's checksum can be verified against
/// exactly the bytes preceding it.
class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in) {}

  bool next() {
    if (!std::getline(in_, line_)) return false;
    ++line_no_;
    crc_before_ = crc_;
    crc_ = crc32_update(crc_, line_);
    crc_ = crc32_update(crc_, "\n");
    return true;
  }

  [[nodiscard]] const std::string& line() const noexcept { return line_; }
  [[nodiscard]] std::size_t line_no() const noexcept { return line_no_; }
  /// CRC of every line consumed *before* the current one (the trailer line
  /// itself is not part of its own checksum).
  [[nodiscard]] std::uint32_t crc_excluding_current() const noexcept {
    return crc_before_;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw HorusError("graph io: line " + std::to_string(line_no_) + ": " +
                     what);
  }

  /// Parses the current line, converting any parse failure into a HorusError
  /// that carries the line number.
  [[nodiscard]] Json parse() const {
    try {
      return Json::parse(line_);
    } catch (const std::exception& e) {
      fail(std::string("malformed JSON (") + e.what() + ")");
    }
  }

 private:
  std::istream& in_;
  std::string line_;
  std::size_t line_no_ = 0;
  std::uint32_t crc_ = crc32_init();
  std::uint32_t crc_before_ = crc32_init();
};

void load_v1_nodes(GraphStore& store, LineReader& reader, std::size_t nodes) {
  for (std::size_t i = 0; i < nodes; ++i) {
    if (!reader.next()) {
      throw HorusError("graph io: truncated node section: header declares " +
                       std::to_string(nodes) + " nodes, file ends after " +
                       std::to_string(i));
    }
    const Json j = reader.parse();
    try {
      PropertyMap props;
      for (const auto& [key, value] : j.at("props").as_object()) {
        props.emplace(key, property_from_json(value));
      }
      const NodeId assigned =
          store.add_node(j.at("label").as_string(), std::move(props));
      // Compared as written: narrowing first would load 2^32 + k as k.
      if (static_cast<std::int64_t>(assigned) != j.at("id").as_int()) {
        throw HorusError("graph io: node ids are not dense");
      }
    } catch (const HorusError&) {
      throw;
    } catch (const std::exception& e) {
      reader.fail(std::string("bad node record (") + e.what() + ")");
    }
  }
}

void load_v2_nodes(GraphStore& store, LineReader& reader, std::size_t nodes) {
  if (!reader.next()) {
    throw HorusError("graph io: missing key table");
  }
  const Json table = reader.parse();
  // The file's key indices are positions in its own table; the store may
  // already have keys interned (e.g. ExecutionGraph pre-interns its schema),
  // so map file index -> store id instead of assuming they coincide.
  std::vector<PropKeyId> key_map;
  try {
    for (const Json& name : table.at("keys").as_array()) {
      key_map.push_back(store.intern_prop_key(name.as_string()));
    }
  } catch (const std::exception& e) {
    reader.fail(std::string("bad key table (") + e.what() + ")");
  }

  for (std::size_t i = 0; i < nodes; ++i) {
    if (!reader.next()) {
      throw HorusError("graph io: truncated node section: header declares " +
                       std::to_string(nodes) + " nodes, file ends after " +
                       std::to_string(i));
    }
    const Json j = reader.parse();
    try {
      PropertyList props;
      for (const Json& entry : j.at("props").as_array()) {
        const auto& pair = entry.as_array();
        if (pair.size() != 2) {
          reader.fail("malformed property entry");
        }
        const auto idx = static_cast<std::size_t>(pair[0].as_int());
        if (idx >= key_map.size()) {
          reader.fail("property key index out of range");
        }
        props.emplace_back(key_map[idx], property_from_json(pair[1]));
      }
      const NodeId assigned =
          store.add_node_typed(j.at("label").as_string(), std::move(props));
      if (static_cast<std::int64_t>(assigned) != j.at("id").as_int()) {
        throw HorusError("graph io: node ids are not dense");
      }
    } catch (const HorusError&) {
      throw;
    } catch (const std::exception& e) {
      reader.fail(std::string("bad node record (") + e.what() + ")");
    }
  }
}

/// Loads the edge section plus the integrity trailer (optional for v1/v2;
/// the caller enforces its presence for v3). Returns the number of edges
/// loaded and sets `saw_trailer`.
std::size_t load_edges(GraphStore& store, LineReader& reader,
                       bool& saw_trailer) {
  const auto node_count = static_cast<std::int64_t>(store.node_count());
  std::size_t edges = 0;
  saw_trailer = false;
  while (reader.next()) {
    if (reader.line().empty()) continue;
    if (saw_trailer) {
      reader.fail("data after integrity trailer");
    }
    const Json j = reader.parse();
    if (j.is_object() && j.contains("checksum")) {
      // Integrity trailer (written since the CRC-hardened format; older
      // snapshots simply end after the last edge).
      saw_trailer = true;
      try {
        const auto stored =
            static_cast<std::uint32_t>(j.at("checksum").as_int());
        const std::uint32_t actual =
            crc32_final(reader.crc_excluding_current());
        if (stored != actual) {
          reader.fail("checksum mismatch: snapshot is corrupt");
        }
        const std::int64_t tn = j.get_or("nodes", std::int64_t{-1});
        if (tn >= 0 && tn != node_count) {
          reader.fail("trailer node count disagrees with loaded nodes");
        }
        const std::int64_t te = j.get_or("edges", std::int64_t{-1});
        if (te >= 0 && te != static_cast<std::int64_t>(edges)) {
          reader.fail("trailer edge count disagrees with loaded edges");
        }
      } catch (const HorusError&) {
        throw;
      } catch (const std::exception& e) {
        reader.fail(std::string("bad integrity trailer (") + e.what() + ")");
      }
      continue;
    }
    try {
      const std::int64_t from = j.at("from").as_int();
      const std::int64_t to = j.at("to").as_int();
      if (from < 0 || from >= node_count || to < 0 || to >= node_count) {
        reader.fail("edge endpoint out of range");
      }
      store.add_edge(static_cast<NodeId>(from), static_cast<NodeId>(to),
                     j.at("type").as_string());
    } catch (const HorusError&) {
      throw;
    } catch (const std::exception& e) {
      reader.fail(std::string("bad edge record (") + e.what() + ")");
    }
    ++edges;
  }
  return edges;
}

}  // namespace

void save_graph(const GraphStore& store, std::ostream& out) {
  const auto n = static_cast<NodeId>(store.node_count());
  std::uint32_t crc = crc32_init();
  const auto emit = [&](const std::string& line) {
    crc = crc32_update(crc, line);
    crc = crc32_update(crc, "\n");
    out << line << '\n';
  };

  Json header = Json::object();
  header["format"] = "horus-graph";
  header["version"] = kSnapshotVersion;
  header["nodes"] = static_cast<std::int64_t>(n);
  header["edges"] = static_cast<std::int64_t>(store.edge_count());
  emit(header.dump());

  // Key table: store id order, so a node's [keyIdx, value] pairs reference
  // positions in this array.
  Json keys = Json::array();
  const std::size_t key_count = store.prop_key_count();
  for (PropKeyId k = 0; k < key_count; ++k) {
    keys.push_back(Json(store.prop_key_name(k)));
  }
  Json table = Json::object();
  table["keys"] = std::move(keys);
  emit(table.dump());

  for (NodeId v = 0; v < n; ++v) {
    Json node = Json::object();
    node["id"] = static_cast<std::int64_t>(v);
    node["label"] = store.node_label(v);
    Json props = Json::array();
    for (const auto& [key, value] : store.node_property_list(v)) {
      Json entry = Json::array();
      entry.push_back(Json(static_cast<std::int64_t>(key)));
      entry.push_back(property_to_json(value));
      props.push_back(std::move(entry));
    }
    node["props"] = std::move(props);
    emit(node.dump());
  }
  for (NodeId v = 0; v < n; ++v) {
    for (const Edge& e : store.out_edges(v)) {
      Json edge = Json::object();
      edge["from"] = static_cast<std::int64_t>(v);
      edge["to"] = static_cast<std::int64_t>(e.to);
      edge["type"] = store.edge_type_name(e.type);
      emit(edge.dump());
    }
  }

  // Integrity trailer: CRC-32 of every preceding line (newlines included)
  // plus the section counts, so a truncated or bit-flipped snapshot is
  // rejected at load instead of producing a silently wrong graph. Required
  // for version >= 3; loaders still accept v1/v2 files without it.
  Json trailer = Json::object();
  trailer["checksum"] = static_cast<std::int64_t>(crc32_final(crc));
  trailer["nodes"] = static_cast<std::int64_t>(n);
  trailer["edges"] = static_cast<std::int64_t>(store.edge_count());
  out << trailer.dump() << '\n';
}

void save_graph_file(const GraphStore& store, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw HorusError("graph io: cannot open " + path);
  save_graph(store, out);
  out.flush();
  if (!out) throw HorusError("graph io: write failed for " + path);
}

void load_graph(GraphStore& store, std::istream& in) {
  if (store.node_count() != 0) {
    throw std::logic_error("graph io: load target must be empty");
  }
  LineReader reader(in);
  if (!reader.next()) {
    throw HorusError("graph io: empty input");
  }
  const Json header = reader.parse();
  std::int64_t version = 1;
  std::size_t nodes = 0;
  std::int64_t declared_edges = -1;
  try {
    if (header.get_or("format", std::string{}) != "horus-graph") {
      throw HorusError("graph io: not a horus-graph snapshot");
    }
    version = header.get_or("version", std::int64_t{1});
    const std::int64_t raw_nodes = header.at("nodes").as_int();
    if (raw_nodes < 0) reader.fail("negative node count in header");
    nodes = static_cast<std::size_t>(raw_nodes);
    declared_edges = header.get_or("edges", std::int64_t{-1});
    if (declared_edges < -1) reader.fail("negative edge count in header");
  } catch (const HorusError&) {
    throw;
  } catch (const std::exception& e) {
    reader.fail(std::string("bad header (") + e.what() + ")");
  }

  switch (version) {
    case 1:
      load_v1_nodes(store, reader, nodes);
      break;
    case 2:
    case 3:  // same body format as v2; only the trailer contract differs
      load_v2_nodes(store, reader, nodes);
      break;
    default:
      throw HorusError("graph io: unsupported snapshot version " +
                       std::to_string(version));
  }
  bool saw_trailer = false;
  const std::size_t edges = load_edges(store, reader, saw_trailer);
  if (declared_edges >= 0 && edges != static_cast<std::size_t>(declared_edges)) {
    throw HorusError("graph io: truncated edge section: header declares " +
                     std::to_string(declared_edges) + " edges, file has " +
                     std::to_string(edges));
  }
  if (version >= 3 && !saw_trailer) {
    throw HorusError(
        "graph io: missing integrity trailer: snapshot is truncated or "
        "partially written");
  }
}

void load_graph_file(GraphStore& store, const std::string& path) {
  std::ifstream in(path);
  if (!in) throw HorusError("graph io: cannot open " + path);
  load_graph(store, in);
}

}  // namespace horus::graph
