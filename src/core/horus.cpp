#include "core/horus.h"

namespace horus {

Horus::Horus(Options options)
    : inter_(graph_),
      intra_(
          graph_, [this](Event event) { inter_.on_event(event); },
          IntraProcessEncoder::Options{options.granularity}),
      assigner_(graph_) {}

void Horus::ingest(Event event) { intra_.on_event(std::move(event)); }

EventSinkFn Horus::sink() {
  return [this](Event event) { ingest(std::move(event)); };
}

void Horus::seal() {
  intra_.flush();
  inter_.flush();
  assigner_.assign();
}

}  // namespace horus
