#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "queue/broker.h"
#include "queue/consumer.h"
#include "scoped_temp_dir.h"

namespace horus::queue {
namespace {

TEST(PartitionTest, AppendAssignsDenseOffsets) {
  Partition p;
  EXPECT_EQ(p.append("k1", "v1"), 0u);
  EXPECT_EQ(p.append("k2", "v2"), 1u);
  EXPECT_EQ(p.end_offset(), 2u);
}

TEST(PartitionTest, FetchFromOffset) {
  Partition p;
  p.append("k", "a");
  p.append("k", "b");
  p.append("k", "c");
  std::vector<Message> out;
  EXPECT_EQ(p.fetch(1, 10, out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].value, "b");
  EXPECT_EQ(out[1].value, "c");
  out.clear();
  EXPECT_EQ(p.fetch(3, 10, out), 0u);
}

TEST(PartitionTest, FetchRespectsMax) {
  Partition p;
  for (int i = 0; i < 5; ++i) p.append("k", std::to_string(i));
  std::vector<Message> out;
  EXPECT_EQ(p.fetch(0, 2, out), 2u);
}

TEST(PartitionTest, PersistAndLoadRoundTrip) {
  const ScopedTempDir dir("partition");
  const std::string path = dir.file("part.log");
  Partition p;
  p.append("key with spaces", "value \"quoted\"\nnewline");
  p.append("k2", "v2");
  p.persist(path);

  Partition q;
  q.load(path);
  EXPECT_EQ(q.end_offset(), 2u);
  std::vector<Message> out;
  q.fetch(0, 10, out);
  EXPECT_EQ(out[0].key, "key with spaces");
  EXPECT_EQ(out[0].value, "value \"quoted\"\nnewline");
}

TEST(TopicTest, KeyAffinityIsStable) {
  Topic t("events", 4);
  const int p1 = t.partition_for("node1/100");
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(t.partition_for("node1/100"), p1);
  }
}

TEST(TopicTest, ProduceRoutesByKey) {
  Topic t("events", 4);
  const auto [p, off] = t.produce("a-key", "v");
  EXPECT_EQ(p, t.partition_for("a-key"));
  EXPECT_EQ(off, 0u);
  EXPECT_EQ(t.total_messages(), 1u);
}

TEST(TopicTest, RejectsZeroPartitions) {
  EXPECT_THROW(Topic("bad", 0), std::invalid_argument);
}

TEST(TopicTest, AppendSignalWaitTimesOut) {
  Topic t("events", 2);
  const std::uint64_t seen = t.append_signal().seq();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(t.append_signal().wait_past(
      seen, start + std::chrono::milliseconds(10)));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(10));
}

TEST(TopicTest, AppendSignalWakesOnAppendToAnyPartition) {
  Topic t("events", 3);
  const std::uint64_t seen = t.append_signal().seq();
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    woke = t.append_signal().wait_past(
        seen, std::chrono::steady_clock::now() + std::chrono::seconds(2));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.partition(2).append("k", "v");
  waiter.join();
  EXPECT_TRUE(woke.load());
  EXPECT_NE(t.append_signal().seq(), seen);
}

TEST(BrokerTest, CreateTopicIdempotent) {
  Broker b;
  b.create_topic("t", 2);
  b.create_topic("t", 2);
  EXPECT_THROW(b.create_topic("t", 3), std::invalid_argument);
  EXPECT_TRUE(b.has_topic("t"));
  EXPECT_FALSE(b.has_topic("missing"));
  EXPECT_THROW(b.topic("missing"), std::out_of_range);
}

TEST(BrokerTest, OffsetsDefaultToZero) {
  Broker b;
  EXPECT_EQ(b.committed_offset("g", "t", 0), 0u);
  b.commit_offset("g", "t", 0, 5);
  EXPECT_EQ(b.committed_offset("g", "t", 0), 5u);
  EXPECT_EQ(b.committed_offset("other", "t", 0), 0u);
}

TEST(BrokerTest, PersistAndLoad) {
  const ScopedTempDir scratch("broker");
  const std::string dir = scratch.file("state");
  {
    Broker b;
    Topic& t = b.create_topic("events", 2);
    t.produce("k1", "v1");
    t.produce("k2", "v2");
    b.commit_offset("g", "events", 0, 1);
    b.persist(dir);
  }
  Broker b2;
  b2.load(dir);
  EXPECT_TRUE(b2.has_topic("events"));
  EXPECT_EQ(b2.topic("events").total_messages(), 2u);
  EXPECT_EQ(b2.committed_offset("g", "events", 0), 1u);
}

TEST(ConsumerTest, PollDrainsAssignedPartitions) {
  Broker b;
  Topic& t = b.create_topic("t", 2);
  t.partition(0).append("a", "1");
  t.partition(1).append("b", "2");
  Consumer c(b, "g", "t", {0, 1});
  const auto batch = c.poll(10, 0);
  EXPECT_EQ(batch.size(), 2u);
}

TEST(ConsumerTest, BlockedPollWakesOnItsSecondPartition) {
  // The wait covers every assigned partition: a message on partition 1
  // ends a poll that found all of them empty, long before its timeout.
  Broker b;
  Topic& t = b.create_topic("t", 2);
  Consumer c(b, "g", "t", {0, 1});
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    t.partition(1).append("k", "late");
  });
  const auto start = std::chrono::steady_clock::now();
  const auto batch = c.poll(10, /*timeout_ms=*/2000);
  const auto waited = std::chrono::steady_clock::now() - start;
  producer.join();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].partition, 1);
  EXPECT_EQ(batch[0].message.value, "late");
  EXPECT_LT(waited, std::chrono::milliseconds(500));
}

TEST(ConsumerTest, PerPartitionFifoOrder) {
  Broker b;
  Topic& t = b.create_topic("t", 1);
  for (int i = 0; i < 100; ++i) t.partition(0).append("k", std::to_string(i));
  Consumer c(b, "g", "t", {0});
  int expected = 0;
  while (true) {
    const auto batch = c.poll(7, 0);
    if (batch.empty()) break;
    for (const auto& m : batch) {
      EXPECT_EQ(m.message.value, std::to_string(expected++));
    }
  }
  EXPECT_EQ(expected, 100);
}

TEST(ConsumerTest, AtLeastOnceRedeliveryAfterReset) {
  Broker b;
  Topic& t = b.create_topic("t", 1);
  t.partition(0).append("k", "m1");
  t.partition(0).append("k", "m2");

  Consumer c(b, "g", "t", {0});
  auto batch = c.poll(1, 0);
  ASSERT_EQ(batch.size(), 1u);
  c.commit();
  batch = c.poll(1, 0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].message.value, "m2");
  // Crash before commit: m2 must be redelivered.
  c.reset_to_committed();
  batch = c.poll(10, 0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].message.value, "m2");
}

TEST(ConsumerTest, SeparateGroupsSeparateOffsets) {
  Broker b;
  Topic& t = b.create_topic("t", 1);
  t.partition(0).append("k", "v");
  Consumer c1(b, "g1", "t", {0});
  Consumer c2(b, "g2", "t", {0});
  EXPECT_EQ(c1.poll(10, 0).size(), 1u);
  c1.commit();
  EXPECT_EQ(c2.poll(10, 0).size(), 1u);  // independent of g1's commit
}

TEST(ConsumerTest, ConcurrentProducersAllConsumed) {
  Broker b;
  b.create_topic("t", 4);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&b, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        b.topic("t").produce("key" + std::to_string(p), "v");
      }
    });
  }
  std::size_t consumed = 0;
  Consumer c(b, "g", "t", {0, 1, 2, 3});
  for (auto& producer : producers) producer.join();
  while (true) {
    const auto batch = c.poll(128, 0);
    if (batch.empty()) break;
    consumed += batch.size();
  }
  EXPECT_EQ(consumed, static_cast<std::size_t>(kProducers * kPerProducer));
}

}  // namespace
}  // namespace horus::queue
