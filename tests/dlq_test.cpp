// Dead-letter handling: undecodable or invalid inputs are diverted to the
// DLQ topic instead of poisoning the graph, and the pipeline drains cleanly
// around them.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "adapters/file_source.h"
#include "common/json.h"
#include "core/pipeline.h"
#include "scoped_temp_dir.h"
#include "tracer/probe_record.h"

namespace horus {
namespace {

Event log_event(std::uint64_t id, TimeNs ts) {
  Event e;
  e.id = EventId{id};
  e.type = EventType::kLog;
  e.thread = ThreadRef{"h", 1, 1};
  e.service = "svc";
  e.timestamp = ts;
  e.payload = LogPayload{"m", "t"};
  return e;
}

PipelineOptions fast_options() {
  PipelineOptions options;
  options.partitions = 2;
  options.intra_workers = 1;
  options.inter_workers = 1;
  options.event_flush_interval_ms = 5;
  options.relationship_flush_interval_ms = 5;
  return options;
}

TEST(DeadLetterTest, GarbageAndInvalidEventsLandInDlq) {
  queue::Broker broker;
  ExecutionGraph graph;
  Pipeline pipeline(broker, graph, fast_options());
  pipeline.start();

  pipeline.publish(log_event(1, 10));
  // Not JSON at all.
  broker.topic("horus.events").produce("k", "definitely not json");
  // Valid JSON, valid wire schema, but an SND with no net payload can never
  // satisfy the encoders' invariants.
  broker.topic("horus.events")
      .produce("k",
               R"({"id":7,"type":"SND","thread":{"host":"h","pid":1,"tid":1},)"
               R"("service":"s","ts":5})");

  EXPECT_TRUE(pipeline.drain());
  pipeline.stop();

  EXPECT_EQ(pipeline.events_dead_lettered(), 2u);
  EXPECT_EQ(graph.event_count(), 1u);  // only the valid event
  EXPECT_TRUE(graph.node_of(EventId{1}).has_value());

  // Both poisoned messages are inspectable on the DLQ topic, tagged with
  // the failing stage.
  queue::Topic& dlq = broker.topic("horus.dlq");
  ASSERT_EQ(dlq.total_messages(), 2u);
  std::vector<queue::Message> messages;
  dlq.partition(0).fetch(0, 16, messages);
  ASSERT_EQ(messages.size(), 2u);
  std::vector<std::string> stages;
  for (const queue::Message& m : messages) {
    const Json entry = Json::parse(m.value);
    stages.push_back(entry.at("stage").as_string());
    EXPECT_FALSE(entry.at("error").as_string().empty());
    EXPECT_FALSE(entry.at("payload").as_string().empty());
  }
  std::sort(stages.begin(), stages.end());
  EXPECT_EQ(stages,
            (std::vector<std::string>{"intra-decode", "intra-validate"}));
}

TEST(DeadLetterTest, FileSourceRoutesMalformedLinesToDlq) {
  const ScopedTempDir dir("logs");
  const std::string log_path = dir.file("app.log");

  auto log4j_line = [](const std::string& message, TimeNs ts) {
    sim::LogRecord record;
    record.thread = ThreadRef{"node1", 10, 1};
    record.timestamp = ts;
    record.service = "svc";
    record.message = message;
    return record.to_json_line() + "\n";
  };
  {
    std::ofstream out(log_path, std::ios::binary);
    out << log4j_line("first", 1);
    out << "%%% corrupted line %%%\n";
    out << log4j_line("second", 2);
  }

  queue::Broker broker;
  ExecutionGraph graph;
  Pipeline pipeline(broker, graph, fast_options());
  pipeline.start();

  FileTailSource source(0, pipeline.sink());
  source.set_dead_letter(pipeline.dead_letter_sink());
  source.add_file(log_path, LogFormat::kLog4j);
  EXPECT_EQ(source.poll(), 2u);

  EXPECT_TRUE(pipeline.drain());
  pipeline.stop();

  EXPECT_EQ(source.parse_errors(), 1u);
  EXPECT_EQ(pipeline.events_dead_lettered(), 1u);
  EXPECT_EQ(graph.event_count(), 2u);
  ASSERT_EQ(broker.topic("horus.dlq").total_messages(), 1u);
  std::vector<queue::Message> messages;
  broker.topic("horus.dlq").partition(0).fetch(0, 1, messages);
  const Json entry = Json::parse(messages[0].value);
  EXPECT_EQ(entry.at("stage").as_string(), "adapter");
  EXPECT_EQ(entry.at("payload").as_string(), "%%% corrupted line %%%");
}

}  // namespace
}  // namespace horus
