#include "query/evaluator.h"

#include <chrono>
#include <utility>

#include "obs/metrics.h"
#include "query/eval_internal.h"
#include "query/exec.h"
#include "query/parser.h"

namespace horus::query {

// ---------------------------------------------------------------------------
// Value helpers
// ---------------------------------------------------------------------------

std::string Value::to_display_string() const {
  if (is_null()) return "null";
  if (const auto* b = std::get_if<bool>(&v_)) return *b ? "true" : "false";
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v_)) return std::to_string(*d);
  if (const auto* s = std::get_if<std::string>(&v_)) return *s;
  if (const auto* n = std::get_if<NodeRef>(&v_)) {
    return "#node" + std::to_string(n->id);
  }
  const auto& list = std::get<ValueList>(v_);
  std::string out = "[";
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i > 0) out += ", ";
    out += list[i].to_display_string();
  }
  out += ']';
  return out;
}

int compare_values(const Value& a, const Value& b) {
  if (a.is_number() && b.is_number()) {
    const double x = a.as_number();
    const double y = b.as_number();
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (a.is_string() && b.is_string()) {
    const int c = a.as_string().compare(b.as_string());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (a.is_bool() && b.is_bool()) {
    return static_cast<int>(a.as_bool()) - static_cast<int>(b.as_bool());
  }
  if (a.is_node() && b.is_node()) {
    const auto x = a.as_node().id;
    const auto y = b.as_node().id;
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.is_null() && b.is_null()) return 0;
  return -2;
}

// ---------------------------------------------------------------------------
// QueryEngine
// ---------------------------------------------------------------------------

void QueryEngine::register_procedure(std::string name, ProcedureDef def) {
  procedures_.insert_or_assign(std::move(name), std::move(def));
}

QueryResult QueryEngine::run(std::string_view text,
                             const QueryParams& params) const {
  static obs::Histogram& parse_seconds = obs::Registry::global().histogram(
      "horus_query_parse_seconds", "Query text -> AST latency");
  const auto parse_start = std::chrono::steady_clock::now();
  const Query query = parse_query(text);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - parse_start)
                             .count();
  parse_seconds.observe(elapsed);
  if (options_.profile != nullptr) options_.profile->add_parse(elapsed);
  return run(query, params);
}

QueryResult QueryEngine::run(const Query& query,
                             const QueryParams& params) const {
  return run_impl(query, params, nullptr);
}

ExplainResult QueryEngine::explain(std::string_view text,
                                   const QueryParams& params) const {
  ExplainResult out;
  const Query query = parse_query(text);
  out.result = run_impl(query, params, &out.report);
  return out;
}

QueryResult QueryEngine::run_impl(const Query& query, const QueryParams& params,
                                  PlanReport* report) const {
  // Planner counters, surfaced by `horus stats`.
  static obs::Counter& plans_built = obs::Registry::global().counter(
      "horus_query_plans_built_total",
      "Queries lowered into a logical plan (planned or fallback)");
  static obs::Counter& plan_fallbacks = obs::Registry::global().counter(
      "horus_query_plan_fallbacks_total",
      "Queries not lowered whole into a plan, run on the clause pipeline");
  static obs::Counter& predicates_pushed = obs::Registry::global().counter(
      "horus_query_predicates_pushed_total",
      "WHERE conjuncts pushed into planned scans/filters");
  static obs::Counter& segments_pruned_total = obs::Registry::global().counter(
      "horus_query_plan_segments_pruned_total",
      "Sealed segments skipped by planned range scans via summaries");

  const internal::Evaluator ev(graph_, procedures_, params, options_);
  const auto plan_start = std::chrono::steady_clock::now();
  const Plan plan = Planner(graph_, params).plan(query);
  const double plan_elapsed = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - plan_start)
                                  .count();
  plans_built.inc();
  if (!plan.planned) plan_fallbacks.inc();
  if (plan.predicates_pushed > 0) predicates_pushed.inc(plan.predicates_pushed);
  if (options_.profile != nullptr) {
    options_.profile->add_plan(
        plan_elapsed,
        plan.planned ? static_cast<std::uint64_t>(plan.scan_estimate) : 0);
  }
  if (report != nullptr) *report = describe_plan(plan);

  internal::RowSet rows;
  if (plan.planned) {
    ExecCounters counters;
    rows = execute_plan(ev, plan, report, &counters);
    if (counters.segments_pruned > 0) {
      segments_pruned_total.inc(counters.segments_pruned);
    }
    if (plan.tail_begin < query.clauses.size()) {
      rows = ev.run_from(query, plan.tail_begin, std::move(rows));
    }
    if (report != nullptr && options_.profile != nullptr) {
      options_.profile->add_plan_text(report->to_text(/*include_timing=*/true));
    }
  } else {
    rows = ev.run(query);
  }

  QueryResult result;
  result.columns = std::move(rows.columns);
  result.rows = std::move(rows.rows);
  if (options_.guard != nullptr && options_.guard->stopped()) {
    result.truncated = true;
    result.truncated_reason = options_.guard->reason();
    // A guard tripped before the first clause produced anything leaves only
    // the pipeline's bootstrap row (no columns) — not a real partial row.
    if (result.columns.empty()) result.rows.clear();
    // One bump per degraded query, labeled by which guardrail fired —
    // `horus stats` exposes these as horus_query_limit_hits_total.
    static obs::Family<obs::Counter>& limit_hits =
        obs::Registry::global().counters(
            "horus_query_limit_hits_total",
            "Queries cut short by a guardrail, by tripped limit");
    limit_hits.with({{"limit", result.truncated_reason}}).inc();
  }
  return result;
}

std::string QueryResult::to_table() const {
  std::vector<std::size_t> widths(columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) {
    widths[c] = columns[c].size();
  }
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows.size());
  for (const auto& row : rows) {
    std::vector<std::string> line;
    for (std::size_t c = 0; c < row.size(); ++c) {
      line.push_back(row[c].to_display_string());
      if (c < widths.size()) widths[c] = std::max(widths[c], line[c].size());
    }
    rendered.push_back(std::move(line));
  }
  std::string out;
  auto add_row = [&](const std::vector<std::string>& cells) {
    out += '|';
    for (std::size_t c = 0; c < widths.size(); ++c) {
      out += ' ';
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      out += cell;
      out.append(widths[c] - cell.size() + 1, ' ');
      out += '|';
    }
    out += '\n';
  };
  add_row(columns);
  out += '|';
  for (std::size_t c = 0; c < widths.size(); ++c) {
    out.append(widths[c] + 2, '-');
    out += '|';
  }
  out += '\n';
  for (const auto& line : rendered) add_row(line);
  return out;
}

}  // namespace horus::query
