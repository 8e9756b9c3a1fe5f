#include "graph/graph_io.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "common/error.h"
#include "graph/record_io.h"

namespace horus::graph {

namespace {

void load_snapshot(GraphStore& store, std::istream& in,
                   const std::string& what) {
  GraphStore::Install install(store);
  GraphFileReader reader(in, what, GraphFileKind::kSnapshot);
  install.file(reader);
  install.finish();
}

}  // namespace

void save_graph(const GraphStore& store, std::ostream& out) {
  store.write_snapshot(out);
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
