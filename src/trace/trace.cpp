#include "trace/trace.hpp"

#include "support/error.hpp"

namespace tdbg::trace {

std::string_view event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kEnter: return "enter";
    case EventKind::kExit: return "exit";
    case EventKind::kSend: return "send";
    case EventKind::kRecv: return "recv";
    case EventKind::kCollective: return "coll";
    case EventKind::kCompute: return "compute";
    case EventKind::kMark: return "mark";
    case EventKind::kFaultInjected: return "fault";
  }
  return "?";
}

Trace::Trace(int num_ranks, std::vector<Event> events,
             std::shared_ptr<const ConstructRegistry> constructs)
    : Trace(std::make_shared<InMemoryTraceStore>(num_ranks, std::move(events),
                                                 std::move(constructs))) {}

Trace::Trace(std::shared_ptr<const TraceStore> store)
    : store_(std::move(store)),
      inmem_(dynamic_cast<const InMemoryTraceStore*>(store_.get())),
      caches_(std::make_shared<Caches>()) {
  TDBG_CHECK(store_ != nullptr, "trace store must not be null");
}

Event Trace::event(std::size_t i) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  return store_->event(i);
}

const ConstructRegistry& Trace::constructs() const {
  TDBG_CHECK(store_ != nullptr && store_->constructs() != nullptr,
             "trace has no construct table");
  return *store_->constructs();
}

std::shared_ptr<const ConstructRegistry> Trace::constructs_ptr() const {
  return store_ ? store_->constructs() : nullptr;
}

std::size_t Trace::rank_size(mpi::Rank rank) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  return store_->rank_size(rank);
}

std::size_t Trace::rank_event(mpi::Rank rank, std::size_t pos) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  return store_->rank_event(rank, pos);
}

void Trace::for_each_event(const EventVisitor& visit) const {
  if (store_) store_->for_each(visit);
}

void Trace::for_each_rank_event(mpi::Rank rank,
                                const EventVisitor& visit) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  store_->for_each_rank_event(rank, visit);
}

void Trace::for_each_event_in_rank_order(const EventVisitor& visit) const {
  if (is_lazy()) {
    for_each_event(visit);
    return;
  }
  // In memory a rank's display order may differ from its marker order
  // (hand-built histories); the per-rank index is exact and costs no
  // decode.
  for (mpi::Rank r = 0; r < num_ranks(); ++r) for_each_rank_event(r, visit);
}

void Trace::for_each_in_window(support::TimeNs t0, support::TimeNs t1,
                               const EventVisitor& visit) const {
  if (store_) store_->for_each_in_window(t0, t1, visit);
}

std::optional<std::size_t> Trace::find_marker(mpi::Rank rank,
                                              std::uint64_t marker) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  return store_->find_marker(rank, marker);
}

std::optional<std::size_t> Trace::last_event_at_or_before(
    mpi::Rank rank, support::TimeNs t) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  return store_->last_event_at_or_before(rank, t);
}

std::vector<std::size_t> Trace::events_in_window(support::TimeNs t0,
                                                 support::TimeNs t1) const {
  std::vector<std::size_t> out;
  for_each_in_window(t0, t1,
                     [&out](std::size_t i, const Event&) { out.push_back(i); });
  return out;
}

std::pair<std::size_t, std::size_t> Trace::segment_range(
    std::size_t seg) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  return store_->segment_range(seg);
}

void Trace::for_each_in_segment(std::size_t seg,
                                const EventVisitor& visit) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  store_->for_each_in_segment(seg, visit);
}

void Trace::for_each_in_segment_cols(std::size_t seg, ColumnSet cols,
                                     const EventVisitor& visit) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  store_->for_each_in_segment_cols(seg, cols, visit);
}

std::optional<SegmentZones> Trace::segment_zones(std::size_t seg) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  return store_->segment_zones(seg);
}

void Trace::for_each_rank_in_window(mpi::Rank rank, support::TimeNs t0,
                                    support::TimeNs t1,
                                    const EventVisitor& visit) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  store_->for_each_rank_in_window(rank, t0, t1, visit);
}

void Trace::for_each_rank_in_window_cols(mpi::Rank rank, support::TimeNs t0,
                                         support::TimeNs t1, ColumnSet cols,
                                         const EventVisitor& visit) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  store_->for_each_rank_in_window_cols(rank, t0, t1, cols, visit);
}

void Trace::parallel_for_each_segment(
    std::string_view site,
    const std::function<void(std::size_t seg)>& body) const {
  if (!store_) return;
  exec::Executor::global().parallel_for(store_->segment_count(), site, body);
}

const std::vector<Event>& Trace::events() const {
  static const std::vector<Event> kNoEvents;
  if (!store_) return kNoEvents;
  if (inmem_) return inmem_->events_vector();
  std::lock_guard lk(caches_->mu);
  if (!caches_->events) {
    std::vector<Event> all;
    all.reserve(store_->size());
    store_->for_each(
        [&all](std::size_t, const Event& e) { all.push_back(e); });
    caches_->events = std::move(all);
  }
  return *caches_->events;
}

const std::vector<std::size_t>& Trace::rank_events(mpi::Rank rank) const {
  TDBG_CHECK(store_ != nullptr, "empty trace");
  if (inmem_) return inmem_->rank_index(rank);
  TDBG_CHECK(rank >= 0 && rank < store_->num_ranks(), "rank out of range");
  std::lock_guard lk(caches_->mu);
  auto& slots = caches_->rank_index;
  if (slots.size() < static_cast<std::size_t>(store_->num_ranks())) {
    slots.resize(static_cast<std::size_t>(store_->num_ranks()));
  }
  auto& slot = slots[static_cast<std::size_t>(rank)];
  if (!slot) {
    std::vector<std::size_t> idx;
    idx.reserve(store_->rank_size(rank));
    store_->for_each_rank_event(
        rank, [&idx](std::size_t i, const Event&) { idx.push_back(i); });
    slot = std::move(idx);
  }
  return *slot;
}

}  // namespace tdbg::trace
