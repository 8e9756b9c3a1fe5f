#include "replay.h"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "core/clock_daemon.h"
#include "core/inter_encoder.h"
#include "core/intra_encoder.h"
#include "core/pipeline.h"
#include "queue/broker.h"
#include "queue/consumer.h"
#include "service/checkpoint.h"

namespace perfbench {

namespace {

/// Polls everything the consumer can see, one span per poll call.
std::vector<horus::queue::ConsumedMessage> poll_all(
    horus::queue::Consumer& consumer, SpanRecorder& spans) {
  std::vector<horus::queue::ConsumedMessage> out;
  for (;;) {
    SpanRecorder::Scope span(spans, "queue.poll");
    auto batch = consumer.poll(512, /*timeout_ms=*/0);
    span.set_items(batch.size());
    if (batch.empty()) return out;
    std::move(batch.begin(), batch.end(), std::back_inserter(out));
  }
}

std::vector<horus::Event> decode(
    const std::vector<horus::queue::ConsumedMessage>& messages,
    SpanRecorder& spans) {
  std::vector<horus::Event> events;
  events.reserve(messages.size());
  const SpanRecorder::Scope span(spans, "event.decode", 0, messages.size());
  for (const auto& message : messages) {
    events.push_back(
        horus::Event::from_json(horus::Json::parse(message.message.value)));
  }
  return events;
}

double per_item(const std::map<std::string, SpanStats>& stats, const char* name,
                double scale, bool self = false) {
  const auto it = stats.find(name);
  return it == stats.end() ? 0.0 : it->second.per_item(scale, self);
}

double per_call(const std::map<std::string, SpanStats>& stats, const char* name,
                double scale) {
  const auto it = stats.find(name);
  return it == stats.end() || it->second.count == 0
             ? 0.0
             : it->second.total_s * scale / static_cast<double>(it->second.count);
}

double total_s(const std::map<std::string, SpanStats>& stats, const char* name) {
  const auto it = stats.find(name);
  return it == stats.end() ? 0.0 : it->second.total_s;
}

}  // namespace

ReplayResult staged_replay(const std::vector<horus::Event>& events,
                           std::size_t events_per_cycle, const std::string& dir,
                           SpanRecorder& spans) {
  const horus::PipelineOptions layout;  // the daemon's topics and partitions
  const std::vector<int> partitions = [&] {
    std::vector<int> all(static_cast<std::size_t>(layout.partitions));
    for (int p = 0; p < layout.partitions; ++p) all[static_cast<std::size_t>(p)] = p;
    return all;
  }();
  horus::queue::Broker broker;
  horus::queue::Topic& sources =
      broker.create_topic(layout.sources_topic, layout.partitions);
  horus::queue::Topic& timeline =
      broker.create_topic(layout.timeline_topic, layout.partitions);
  horus::queue::Consumer intra_in(broker, "replay-intra", layout.sources_topic,
                                  partitions);
  horus::queue::Consumer inter_in(broker, "replay-inter",
                                  layout.timeline_topic, partitions);

  horus::ExecutionGraph graph;
  horus::IntraProcessEncoder intra(graph, [&](horus::Event event) {
    std::string value;
    {
      const SpanRecorder::Scope span(spans, "event.encode");
      value = event.to_json().dump();
    }
    const SpanRecorder::Scope span(spans, "queue.produce");
    timeline.produce(horus::inter_routing_key(event), std::move(value));
  });
  horus::InterProcessEncoder inter(graph);
  horus::ClockDaemon clocks(graph);

  const auto start = Clock::now();
  double wire_bytes = 0;
  const std::size_t cycle = std::max<std::size_t>(1, events_per_cycle);
  for (std::size_t first = 0; first < events.size(); first += cycle) {
    const std::size_t last = std::min(events.size(), first + cycle);
    const std::size_t n = last - first;
    std::vector<std::string> wire(n);
    {
      const SpanRecorder::Scope span(spans, "event.encode", 0, n);
      for (std::size_t i = 0; i < n; ++i) {
        wire[i] = events[first + i].to_json().dump();
      }
    }
    for (const std::string& w : wire) wire_bytes += static_cast<double>(w.size());
    {
      const SpanRecorder::Scope span(spans, "queue.produce", 0, n);
      for (std::size_t i = 0; i < n; ++i) {
        sources.produce(horus::timeline_key(events[first + i],
                                            layout.granularity),
                        std::move(wire[i]));
      }
    }
    std::vector<horus::Event> decoded = decode(poll_all(intra_in, spans), spans);
    {
      const SpanRecorder::Scope span(spans, "core.intra.on_event", 0,
                                     decoded.size());
      for (horus::Event& event : decoded) intra.on_event(std::move(event));
    }
    {
      const SpanRecorder::Scope span(spans, "core.intra.flush", 0, n);
      intra.flush();
    }
    {
      const SpanRecorder::Scope span(spans, "queue.commit");
      intra_in.commit();
    }
    decoded = decode(poll_all(inter_in, spans), spans);
    {
      const SpanRecorder::Scope span(spans, "core.inter.on_event", 0,
                                     decoded.size());
      for (const horus::Event& event : decoded) inter.on_event(event);
    }
    {
      const SpanRecorder::Scope span(spans, "core.inter.flush", 0, n);
      inter.flush();
    }
    {
      const SpanRecorder::Scope span(spans, "queue.commit");
      inter_in.commit();
    }
    {
      const SpanRecorder::Scope span(spans, "core.clock.tick", 0, n);
      keep(clocks.tick());
    }
  }

  const std::string record = clocks.with_clocks([](const horus::ClockTable& t) {
    std::ostringstream out;
    t.save(out);
    return std::move(out).str();
  });
  const std::string checkpoint_dir = dir + "/replay-checkpoints";
  horus::service::CheckpointStore store(
      horus::service::CheckpointOptions{checkpoint_dir, 1});
  {
    const SpanRecorder::Scope span(spans, "service.checkpoint.write");
    keep(store.write(graph, record, broker.offsets_snapshot(), "").epoch);
  }
  const double wall = seconds_since(start);
  const double n = static_cast<double>(std::max<std::size_t>(1, events.size()));

  const auto stats = spans.aggregate();
  ReplayResult r;
  r.encode_ns = per_item(stats, "event.encode", 1e9);
  r.decode_ns = per_item(stats, "event.decode", 1e9);
  r.wire_bytes = wire_bytes / n;
  r.produce_ns = per_item(stats, "queue.produce", 1e9);
  r.poll_ns = per_item(stats, "queue.poll", 1e9);
  r.commit_us = per_call(stats, "queue.commit", 1e6);
  r.intra_on_event_ns = per_item(stats, "core.intra.on_event", 1e9);
  r.intra_flush_ns = per_item(stats, "core.intra.flush", 1e9, /*self=*/true);
  r.inter_on_event_ns = per_item(stats, "core.inter.on_event", 1e9);
  r.inter_flush_ns = per_item(stats, "core.inter.flush", 1e9, /*self=*/true);
  r.tick_ms = per_call(stats, "core.clock.tick", 1e3);
  r.checkpoint_write_ms = total_s(stats, "service.checkpoint.write") * 1e3;
  r.checkpoint_bytes_per_event =
      static_cast<double>(disk_bytes(checkpoint_dir)) / n;
  r.staged_us_per_event = wall * 1e6 / n;
  r.intra_flush_s = total_s(stats, "core.intra.flush");
  r.inter_flush_s = total_s(stats, "core.inter.flush");
  r.tick_s = total_s(stats, "core.clock.tick");
  std::error_code ec;
  std::filesystem::remove_all(checkpoint_dir, ec);
  return r;
}

}  // namespace perfbench
