// Staged replay: the workload's events pushed single-threaded through each
// layer's public functions, in pipeline order, with a span around every
// call — the per-layer work per event with nothing to wait on.
//
//   1 encode                      Event::to_json().dump()
//   2 produce                     queue::Topic::produce (sources topic)
//   3 poll                        queue::Consumer::poll
//   4 decode                      Event::from_json(Json::parse(...))
//   5 intra encoder               IntraProcessEncoder::on_event / flush; the
//                                 flush sink encodes and produces each event
//                                 into the timeline topic
//   6 poll + decode again         (timeline topic)
//   7 inter encoder               InterProcessEncoder::on_event / flush
//   8 clock tick                  ClockDaemon::tick, once per flush cycle
//   9 checkpoint                  service::CheckpointStore::write, once
#pragma once

#include <string>
#include <vector>

#include "event/event.h"
#include "spans.h"

namespace perfbench {

struct ReplayResult {
  double encode_ns = 0, decode_ns = 0, wire_bytes = 0;
  double produce_ns = 0, poll_ns = 0, commit_us = 0;
  double intra_on_event_ns = 0, intra_flush_ns = 0;
  double inter_on_event_ns = 0, inter_flush_ns = 0;
  double tick_ms = 0;
  double checkpoint_write_ms = 0, checkpoint_bytes_per_event = 0;
  double staged_us_per_event = 0;
  /// Inclusive flush and tick seconds, to set against the daemon's busy time
  /// for the same events.
  double intra_flush_s = 0, inter_flush_s = 0, tick_s = 0;
};

/// Replays `events` in flush cycles of `events_per_cycle` events, using
/// `dir` for the checkpoint. Spans go into `spans` (must be enabled).
[[nodiscard]] ReplayResult staged_replay(const std::vector<horus::Event>& events,
                                         std::size_t events_per_cycle,
                                         const std::string& dir,
                                         SpanRecorder& spans);

}  // namespace perfbench
