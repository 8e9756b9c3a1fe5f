// Fuzz-style robustness test for the query front-end.
//
// A seeded mutator derives thousands of corrupted inputs from a corpus of
// valid queries — truncations, token swaps, junk-byte insertions, deletions,
// duplications — and feeds them to the lexer/parser. The contract under
// test: parse_query() either succeeds or throws QueryError; it must never
// crash, overflow the stack, or throw anything else. The asan preset runs
// this suite (label `quick`), so out-of-bounds reads in the lexer or parser
// surface as hard failures.
//
// The deep-nesting tests pin the parser's recursion-depth limit: expression
// nesting beyond kMaxExprDepth is rejected with QueryError instead of
// overflowing the C++ call stack (found by exactly this fuzzer).
//
// The execution tests push every mutant that still parses through the full
// engine and through the brute-force reference of tests/query_reference.h
// over a small real graph under tight QueryLimits. Contract: run() either
// returns or throws QueryError (never crashes, never blows past the guard),
// and whenever both complete untruncated they agree row-for-row.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/horus.h"
#include "fuzz_mutator.h"
#include "gen/topology.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query_reference.h"

namespace horus::query {
namespace {

using horus::fuzz::mutate;

const std::vector<std::string>& corpus() {
  static const std::vector<std::string> queries = {
      "MATCH (n:LOG) RETURN n.message ORDER BY n.message",
      "MATCH (n:LOG {host: 'Payment'}) RETURN n.message LIMIT 3",
      "MATCH (a:SND)-[:HB]->(b:RCV) RETURN a.host AS src, b.host AS dst",
      "MATCH (a:SND)-[*1..4]->(b) RETURN count(*) AS reach",
      "MATCH (n) WHERE n.timestamp > 5 AND NOT n.host = 'L' RETURN n.id",
      "MATCH (n:LOG) WITH n.host AS h, count(*) AS c RETURN h, c ORDER BY c "
      "DESC",
      "MATCH (n:LOG) WHERE n.message CONTAINS 'false' RETURN n.message",
      "MATCH (n:LOG) WITH collect(n.message) AS msgs UNWIND msgs AS m "
      "RETURN m",
      "CALL horus.happensBefore(1, 50) YIELD result RETURN result",
      "CALL horus.getCausalGraph(0, 40, TRUE) YIELD node RETURN count(*)",
      "MATCH (n) RETURN DISTINCT n.host AS host",
      "RETURN 1 + 2 * 3 - 4 / 2 % 3 AS arith",
      "RETURN [1, 2, 'three', TRUE, NULL] AS list",
      "MATCH (n) WHERE n.x IN [1, 2, 3] OR n.y STARTS WITH 'ab' "
      "RETURN n.x ENDS WITH 'z'",
      "RETURN $param AS p",
  };
  return queries;
}

/// Parses `text`, asserting the no-crash contract. Returns true when the
/// query parsed cleanly (used to sanity-check the corpus itself).
bool parse_survives(const std::string& text) {
  try {
    const Query q = parse_query(text);
    return !q.clauses.empty();
  } catch (const QueryError&) {
    return false;  // rejection is fine; crashing is not
  }
  // Anything else escapes and fails the test at the gtest layer.
}

TEST(QueryFuzzTest, CorpusParses) {
  for (const std::string& text : corpus()) {
    EXPECT_TRUE(parse_survives(text)) << text;
  }
}

TEST(QueryFuzzTest, MutatedQueriesNeverCrashTheParser) {
  std::mt19937_64 rng(0xF00D);
  int parsed = 0;
  int rejected = 0;
  for (const std::string& base : corpus()) {
    for (int round = 0; round < 150; ++round) {
      std::string text = base;
      // Stack 1-4 mutations so inputs drift far from the corpus.
      const int stack = 1 + static_cast<int>(rng() % 4);
      for (int i = 0; i < stack; ++i) text = mutate(text, rng);
      SCOPED_TRACE("mutant of: " + base);
      if (parse_survives(text)) {
        ++parsed;
      } else {
        ++rejected;
      }
    }
  }
  // The exact split is irrelevant; what matters is we got here without a
  // crash and the mutator is not degenerate (both outcomes occur).
  EXPECT_GT(parsed + rejected, 2000);
  EXPECT_GT(rejected, 0);
}

TEST(QueryFuzzTest, RandomBytesNeverCrashTheLexer) {
  std::mt19937_64 rng(0xBEEF);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> len(0, 120);
  for (int round = 0; round < 500; ++round) {
    std::string text(len(rng), '\0');
    for (char& c : text) c = static_cast<char>(byte(rng));
    parse_survives(text);  // must not crash; outcome is irrelevant
  }
}

// ---------------------------------------------------------------------------
// Plan + execute fuzzing
// ---------------------------------------------------------------------------

/// Small but real graph shared by the execution fuzz tests.
const ExecutionGraph& fuzz_graph() {
  static const Horus* horus = [] {
    auto* h = new Horus();
    gen::TopologyOptions topology;
    topology.num_services = 4;
    topology.depth = 2;
    topology.requests = 6;
    for (const Event& e : gen::microservice_topology(topology)) {
      h->ingest(e);
    }
    h->seal();
    return h;
  }();
  return horus->graph();
}

struct RunOutcome {
  bool ok = false;         // completed without throwing
  bool truncated = false;  // guard or LIMIT cut the result short
  QueryResult result;
};

/// Runs `text` end to end (parse + plan + execute) under tight limits, on
/// the engine or the reference. The no-crash contract mirrors
/// parse_survives(): QueryError is the only acceptable throw.
RunOutcome run_survives(const std::string& text, bool reference) {
  RunOutcome outcome;
  horus::QueryLimits limits;
  limits.max_rows = 50;
  limits.max_visited_nodes = 5'000;
  horus::QueryGuard guard(limits);
  QueryOptions options;
  options.guard = &guard;
  const QueryEngine engine(fuzz_graph(), options);
  try {
    outcome.result =
        reference ? reference::run(engine, text) : engine.run(text);
    outcome.ok = true;
    outcome.truncated = outcome.result.truncated;
  } catch (const QueryError&) {
    outcome.ok = false;  // rejection is fine; crashing is not
  }
  return outcome;
}

/// The engine and the reference over one input; equality asserted only
/// when both completed untruncated (guard truncation admits rows at
/// different stages, so truncated prefixes may legitimately differ).
void expect_arms_agree(const std::string& text) {
  const RunOutcome want = run_survives(text, /*reference=*/true);
  const RunOutcome got = run_survives(text, /*reference=*/false);
  if (want.ok && got.ok && !want.truncated && !got.truncated) {
    EXPECT_EQ(want.result.columns, got.result.columns) << text;
    EXPECT_EQ(want.result.rows, got.result.rows) << text;
  }
}

TEST(QueryFuzzTest, CorpusExecutesLikeTheReference) {
  for (const std::string& text : corpus()) {
    expect_arms_agree(text);
  }
}

TEST(QueryFuzzTest, MutatedQueriesNeverCrashTheEngine) {
  std::mt19937_64 rng(0xCAFE);
  int executed = 0;
  for (const std::string& base : corpus()) {
    for (int round = 0; round < 40; ++round) {
      std::string text = base;
      const int stack = 1 + static_cast<int>(rng() % 3);
      for (int i = 0; i < stack; ++i) text = mutate(text, rng);
      SCOPED_TRACE("mutant of: " + base);
      try {
        (void)parse_query(text);
      } catch (const QueryError&) {
        continue;  // the parser suite owns reject-path coverage
      }
      expect_arms_agree(text);
      ++executed;
    }
  }
  // The mutator must not be degenerate: a healthy fraction of mutants still
  // reaches the execution layer (~8% of 600 with this seed).
  EXPECT_GE(executed, 30);
}

TEST(QueryFuzzTest, ModerateNestingStillParses) {
  // Well under the limit: parenthesised arithmetic 100 deep.
  std::string text = "RETURN ";
  for (int i = 0; i < 100; ++i) text += '(';
  text += '1';
  for (int i = 0; i < 100; ++i) text += ')';
  EXPECT_TRUE(parse_survives(text)) << "depth-100 expression must parse";
}

TEST(QueryFuzzTest, DeepParenNestingIsRejectedNotACrash) {
  // Far beyond the limit: without the parser's depth guard this is a stack
  // overflow (each '(' is ~5 recursive calls deep).
  std::string text = "RETURN ";
  for (int i = 0; i < 100'000; ++i) text += '(';
  text += '1';
  EXPECT_THROW((void)parse_query(text), QueryError);
}

TEST(QueryFuzzTest, DeepNotChainIsRejectedNotACrash) {
  std::string text = "WHERE ";
  for (int i = 0; i < 50'000; ++i) text += "NOT ";
  text += "TRUE";
  EXPECT_THROW((void)parse_query(text), QueryError);
}

TEST(QueryFuzzTest, DeepListNestingIsRejectedNotACrash) {
  std::string text = "RETURN ";
  for (int i = 0; i < 100'000; ++i) text += '[';
  EXPECT_THROW((void)parse_query(text), QueryError);
}

}  // namespace
}  // namespace horus::query
