#include "service/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/json.h"
#include "graph/record_io.h"
#include "graph/segment.h"
#include "obs/metrics.h"

namespace horus::service {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifest = "MANIFEST.json";

std::string epoch_dir_name(std::uint64_t epoch) {
  return "ckpt-" + std::to_string(epoch);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw HorusError("checkpoint: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// Writes `content` to `path` and throws unless every byte reached the file:
/// a short write (disk full, file-size limit) must fail the checkpoint
/// before anything publishes the epoch.
void write_file(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw HorusError("checkpoint: cannot write " + path.string());
  out << content;
  out.flush();
  if (!out) throw HorusError("checkpoint: write failed for " + path.string());
}

void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  write_file(tmp, content);
  fs::rename(tmp, path);
}

/// Writes the per-segment graph bundle (see header): one binary segment
/// file (.hseg) per segment plus graph_meta.json naming the boundaries. The
/// caller holds the pipeline commit gate, so the layout cannot shift
/// between list() and the per-segment writes.
void write_segmented_graph(graph::SegmentManager& segments,
                           const ExecutionGraph& graph, const fs::path& dir) {
  fs::create_directories(dir / "segments");
  Json seg_list = Json::array();
  Json tail = Json();
  for (const graph::SegmentInfo& info : segments.list()) {
    const std::string file =
        info.sealed ? "segments/seg-" + std::to_string(info.id) + ".hseg"
                    : "segments/tail.hseg";
    segments.write_segment_file(info.id, (dir / file).string());
    Json entry = Json::object();
    entry["id"] = static_cast<std::int64_t>(info.id);
    entry["first"] = static_cast<std::int64_t>(info.first);
    entry["count"] = static_cast<std::int64_t>(info.count);
    entry["file"] = file;
    if (info.sealed) {
      seg_list.push_back(std::move(entry));
    } else {
      tail = std::move(entry);
    }
  }
  Json meta = Json::object();
  meta["format"] = "horus-segmented-graph";
  meta["version"] = std::int64_t{1};
  meta["nodes"] = static_cast<std::int64_t>(graph.store().node_count());
  meta["edges"] = static_cast<std::int64_t>(graph.store().edge_count());
  meta["segments"] = std::move(seg_list);
  meta["tail"] = std::move(tail);
  write_file(dir / "graph_meta.json", meta.dump_pretty() + "\n");
}

/// Loads a segmented epoch into the (empty) graph through the store's bulk
/// install, the path a graph.hgraph restore takes too: each segment file is
/// decoded, CRC-verified and installed in id order, and the in-lists are
/// derived from the out-lists in node order, so a segmented restore and a
/// graph.hgraph restore of the same instant produce identical stores.
/// Returns the sealed boundaries.
std::vector<std::pair<graph::NodeId, std::uint32_t>> load_segmented_graph(
    ExecutionGraph& graph, const fs::path& dir, const Json& meta) {
  struct Entry {
    std::string file;
    graph::NodeId first = 0;
    std::uint32_t count = 0;
  };
  std::vector<Entry> entries;
  std::vector<std::pair<graph::NodeId, std::uint32_t>> sealed;
  std::int64_t meta_nodes = 0;
  std::int64_t meta_edges = 0;
  try {
    if (meta.get_or("format", std::string{}) != "horus-segmented-graph") {
      throw HorusError("checkpoint: graph_meta.json is not a segmented bundle");
    }
    meta_nodes = meta.at("nodes").as_int();
    meta_edges = meta.at("edges").as_int();
    const auto add_entry = [&](const Json& entry, bool is_sealed) {
      Entry e{entry.at("file").as_string(),
              static_cast<graph::NodeId>(entry.at("first").as_int()),
              static_cast<std::uint32_t>(entry.at("count").as_int())};
      if (is_sealed) sealed.emplace_back(e.first, e.count);
      entries.push_back(std::move(e));
    };
    for (const Json& entry : meta.at("segments").as_array()) {
      add_entry(entry, /*is_sealed=*/true);
    }
    add_entry(meta.at("tail"), /*is_sealed=*/false);
  } catch (const HorusError&) {
    throw;
  } catch (const std::exception& e) {
    throw HorusError(std::string("checkpoint: malformed graph_meta.json (") +
                     e.what() + ")");
  }

  graph::GraphStore& store = graph.store();
  graph::GraphStore::Install install(store);
  graph::NodeId expect = 0;
  for (const Entry& entry : entries) {
    if (entry.first != expect) {
      throw HorusError("checkpoint: segment files do not tile the node space");
    }
    const std::string path = (dir / entry.file).string();
    std::ifstream in(path, std::ios::binary);
    if (!in) throw graph::SegmentCorruptError("segment io: cannot open " + path);
    graph::GraphFileReader reader(in, path, graph::GraphFileKind::kSegment);
    if (reader.header().first != entry.first ||
        reader.header().count != entry.count) {
      throw HorusError("checkpoint: segment file " + entry.file +
                       " disagrees with graph_meta.json boundaries");
    }
    install.file(reader);
    expect += entry.count;
  }
  if (static_cast<std::int64_t>(expect) != meta_nodes) {
    throw HorusError("checkpoint: segment node total disagrees with manifest");
  }
  install.finish();
  if (static_cast<std::int64_t>(store.edge_count()) != meta_edges) {
    throw HorusError("checkpoint: segment edge total disagrees with manifest");
  }

  graph.reindex_loaded_store();
  return sealed;
}

}  // namespace

CheckpointStore::CheckpointStore(CheckpointOptions options)
    : options_(std::move(options)) {
  if (options_.dir.empty()) {
    throw std::invalid_argument("checkpoint: empty root directory");
  }
  if (options_.keep_epochs < 1) options_.keep_epochs = 1;
  // Resume epoch numbering past anything on disk, published or not, so a
  // restarted daemon never reuses (and half-overwrites) an existing dir.
  if (fs::exists(options_.dir)) {
    for (const auto& entry : fs::directory_iterator(options_.dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("ckpt-", 0) != 0) continue;
      std::string digits = name.substr(5);
      const std::size_t dot = digits.find('.');
      if (dot != std::string::npos) digits.resize(dot);
      try {
        next_epoch_ = std::max(
            next_epoch_, static_cast<std::uint64_t>(std::stoull(digits)) + 1);
      } catch (const std::exception&) {
        // A stray directory that merely looks like an epoch; ignore.
      }
    }
  }
}

CheckpointInfo CheckpointStore::write(
    const ExecutionGraph& graph, const std::string& clock_record,
    const std::vector<queue::Broker::CommittedOffset>& offsets,
    const std::string& wal_dir) {
  static obs::Counter& checkpoints_total = obs::Registry::global().counter(
      "horus_service_checkpoints_total", "Checkpoint epochs published");
  static obs::Histogram& checkpoint_seconds =
      obs::Registry::global().histogram("horus_service_checkpoint_seconds",
                                        "Checkpoint write+publish latency");
  const obs::Timer timer(checkpoint_seconds);

  fs::create_directories(options_.dir);
  const std::uint64_t epoch = next_epoch_++;
  const fs::path final_dir = fs::path(options_.dir) / epoch_dir_name(epoch);
  const fs::path tmp_dir = final_dir.string() + ".tmp";
  fs::remove_all(tmp_dir);
  fs::create_directories(tmp_dir);

  if (graph::SegmentManager* segments = graph.store().segments()) {
    write_segmented_graph(*segments, graph, tmp_dir);
  } else {
    graph.save((tmp_dir / "graph.hgraph").string());
  }

  write_file(tmp_dir / "clocks.bin", clock_record);

  Json meta = Json::object();
  Json offs = Json::array();
  for (const auto& o : offsets) {
    Json entry = Json::object();
    entry["group"] = o.group;
    entry["topic"] = o.topic;
    entry["partition"] = static_cast<std::int64_t>(o.partition);
    entry["offset"] = static_cast<std::int64_t>(o.offset);
    offs.push_back(std::move(entry));
  }
  meta["offsets"] = std::move(offs);
  meta["epoch"] = static_cast<std::int64_t>(epoch);
  write_file(tmp_dir / "offsets.json", meta.dump_pretty() + "\n");

  // Freeze the pending-pair WAL as of the commit gate (see header).
  fs::create_directories(tmp_dir / "wal");
  if (!wal_dir.empty() && fs::exists(wal_dir)) {
    for (const auto& entry : fs::directory_iterator(wal_dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("inter-", 0) == 0 && name.ends_with(".wal")) {
        fs::copy_file(entry.path(), tmp_dir / "wal" / name,
                      fs::copy_options::overwrite_existing);
      }
    }
  }

  // Publish: rename the directory, then swing the manifest. Both renames
  // are atomic; a crash between them leaves a complete-but-unreferenced
  // epoch dir that the next GC sweeps.
  fs::rename(tmp_dir, final_dir);
  Json manifest = Json::object();
  manifest["epoch"] = static_cast<std::int64_t>(epoch);
  manifest["dir"] = epoch_dir_name(epoch);
  write_file_atomic((fs::path(options_.dir) / kManifest).string(),
                    manifest.dump_pretty() + "\n");
  checkpoints_total.inc();

  // GC: drop unpublished leftovers and epochs older than the retention
  // window (the published epoch is always within it).
  for (const auto& entry : fs::directory_iterator(options_.dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) != 0) continue;
    if (name.ends_with(".tmp")) {
      fs::remove_all(entry.path());
      continue;
    }
    try {
      const std::uint64_t e = std::stoull(name.substr(5));
      if (e + static_cast<std::uint64_t>(options_.keep_epochs) <= epoch) {
        fs::remove_all(entry.path());
      }
    } catch (const std::exception&) {
    }
  }

  return CheckpointInfo{epoch, final_dir.string()};
}

std::optional<CheckpointInfo> CheckpointStore::latest() const {
  const fs::path manifest_path = fs::path(options_.dir) / kManifest;
  if (!fs::exists(manifest_path)) return std::nullopt;
  Json manifest;
  try {
    manifest = Json::parse(read_file(manifest_path.string()));
  } catch (const std::exception& e) {
    throw HorusError(std::string("checkpoint: corrupt manifest (") +
                     e.what() + ")");
  }
  CheckpointInfo info;
  try {
    info.epoch = static_cast<std::uint64_t>(manifest.at("epoch").as_int());
    info.path =
        (fs::path(options_.dir) / manifest.at("dir").as_string()).string();
  } catch (const std::exception& e) {
    throw HorusError(std::string("checkpoint: malformed manifest (") +
                     e.what() + ")");
  }
  if (!fs::exists(info.path)) {
    throw HorusError("checkpoint: manifest points at missing epoch dir " +
                     info.path);
  }
  return info;
}

CheckpointStore::Restored CheckpointStore::restore(
    ExecutionGraph& graph, const std::string& wal_dir) const {
  const std::optional<CheckpointInfo> info = latest();
  if (!info) {
    throw std::logic_error("checkpoint: restore without a checkpoint");
  }
  const fs::path dir(info->path);

  Restored restored;
  restored.epoch = info->epoch;
  const fs::path meta_path = dir / "graph_meta.json";
  if (fs::exists(meta_path)) {
    Json meta;
    try {
      meta = Json::parse(read_file(meta_path.string()));
    } catch (const std::exception& e) {
      throw HorusError(std::string("checkpoint: corrupt graph_meta.json (") +
                       e.what() + ")");
    }
    restored.sealed_segments = load_segmented_graph(graph, dir, meta);
  } else {
    graph.load((dir / "graph.hgraph").string());
  }
  {
    std::ifstream in(dir / "clocks.bin", std::ios::binary);
    if (!in) {
      throw HorusError("checkpoint: missing clocks.bin in " + info->path);
    }
    restored.clocks = ClockTable::load(in);
  }

  Json meta;
  try {
    meta = Json::parse(read_file((dir / "offsets.json").string()));
    for (const Json& o : meta.at("offsets").as_array()) {
      restored.offsets.push_back(queue::Broker::CommittedOffset{
          o.at("group").as_string(), o.at("topic").as_string(),
          static_cast<int>(o.at("partition").as_int()),
          static_cast<std::uint64_t>(o.at("offset").as_int())});
    }
  } catch (const HorusError&) {
    throw;
  } catch (const std::exception& e) {
    throw HorusError(std::string("checkpoint: corrupt offsets.json (") +
                     e.what() + ")");
  }

  // Swap the frozen WAL in for whatever the dead incarnation left behind:
  // the live files describe a later cut than the checkpointed offsets and
  // must not survive (see header).
  if (!wal_dir.empty()) {
    fs::create_directories(wal_dir);
    for (const auto& entry : fs::directory_iterator(wal_dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("inter-", 0) == 0) fs::remove(entry.path());
    }
    const fs::path frozen = dir / "wal";
    if (fs::exists(frozen)) {
      for (const auto& entry : fs::directory_iterator(frozen)) {
        fs::copy_file(entry.path(),
                      fs::path(wal_dir) / entry.path().filename(),
                      fs::copy_options::overwrite_existing);
      }
    }
  }

  return restored;
}

}  // namespace horus::service
