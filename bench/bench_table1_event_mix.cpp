// Table I reproduction: event-type mix of a six-minute TrainTicket run with
// the F13 driver plus background load, captured by Horus' two event sources
// (kernel tracer + Log4j adapter).
//
// Paper reference (20,116 events over 96 process timelines):
//   LOG 22.52%  RCV 21.57%  CREATE 17.99%  START 16.60%  SND 13.37%
//   END 3.28%   JOIN 1.77%  CONNECT 1.11%  FSYNC 0.86%   ACCEPT 0.74%
#include <cstdio>
#include <cstring>

#include "bench_main.h"
#include "core/horus.h"
#include "trainticket/trainticket.h"

namespace {

struct PaperRow {
  horus::EventType type;
  unsigned count;
  double pct;
};

constexpr PaperRow kPaper[] = {
    {horus::EventType::kLog, 4531, 22.52},
    {horus::EventType::kRcv, 4339, 21.57},
    {horus::EventType::kCreate, 3618, 17.99},
    {horus::EventType::kStart, 3340, 16.60},
    {horus::EventType::kSnd, 2689, 13.37},
    {horus::EventType::kEnd, 660, 3.28},
    {horus::EventType::kJoin, 357, 1.77},
    {horus::EventType::kConnect, 260, 1.11},
    {horus::EventType::kFsync, 173, 0.86},
    {horus::EventType::kAccept, 149, 0.74},
};

}  // namespace

int main(int argc, char** argv) {
  horus::tt::TrainTicketOptions options;
  // Full paper scale: six simulated minutes. --quick shrinks it for CI.
  if (horus::bench::flag_present(argc, argv, "--quick")) {
    options.duration_ns = 60'000'000'000;
  }
  options.seed = 7;
  horus::bench::JsonReport json(argc, argv);

  horus::Horus horus;
  const auto report = horus::tt::run_trainticket(options, horus.sink());
  horus.seal();

  std::printf("=== Table I: event mix of a TrainTicket F13 run ===\n");
  std::printf("simulated duration: %llds, total events: %llu "
              "(paper: 360s, 20,116 events)\n",
              static_cast<long long>(options.duration_ns / 1'000'000'000),
              static_cast<unsigned long long>(report.total_events));
  std::printf("process timelines: %zu (paper: 96)\n",
              horus.clocks().timeline_count());
  std::printf("causal relationships: %zu (paper: 27,859)\n\n",
              horus.graph().store().edge_count());

  std::printf("%-10s %12s %10s | %12s %10s\n", "Event Type", "measured",
              "meas.%", "paper", "paper %");
  std::printf("%.*s\n", 62,
              "--------------------------------------------------------------");
  for (const PaperRow& row : kPaper) {
    const auto count = report.mix.counts[horus::index_of(row.type)];
    const double pct = report.mix.total == 0
                           ? 0.0
                           : 100.0 * static_cast<double>(count) /
                                 static_cast<double>(report.mix.total);
    std::printf("%-10s %12llu %9.2f%% | %12u %9.2f%%\n",
                std::string(horus::to_string(row.type)).c_str(),
                static_cast<unsigned long long>(count), pct, row.count,
                row.pct);
    horus::Json jrow = horus::Json::object();
    jrow["event_type"] = std::string(horus::to_string(row.type));
    jrow["measured"] = static_cast<std::int64_t>(count);
    jrow["measured_pct"] = pct;
    jrow["paper"] = static_cast<std::int64_t>(row.count);
    jrow["paper_pct"] = row.pct;
    json.add_row(std::move(jrow));
  }
  const auto fork_count =
      report.mix.counts[horus::index_of(horus::EventType::kFork)];
  if (fork_count > 0) {
    std::printf("%-10s %12llu %9.2f%% | %12s %10s\n", "FORK",
                static_cast<unsigned long long>(fork_count),
                100.0 * static_cast<double>(fork_count) /
                    static_cast<double>(report.mix.total),
                "-", "-");
  }
  std::printf("\nF13 race manifested this run: %s\n",
              report.payment_failed ? "yes (payment failed)" : "no");
  return json.write("table1_event_mix") ? 0 : 1;
}
