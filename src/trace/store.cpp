#include "trace/store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cerrno>

#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/serialize.hpp"
#include "trace/columnar.hpp"

namespace tdbg::trace {

namespace {

/// `trace.cache.*` instruments mirroring `SegmentCacheStats`, so the
/// segment cache shows up in `stats`/`--stats` reports and on the
/// analysis server without callers plumbing `cache_stats()` around.
/// Handles are cached once — registry lookups take a mutex.
struct SegmentCacheMetrics {
  obs::Counter& hits =
      obs::MetricsRegistry::global().counter("trace.cache.hits");
  obs::Counter& loads =
      obs::MetricsRegistry::global().counter("trace.cache.loads");
  obs::Counter& evictions =
      obs::MetricsRegistry::global().counter("trace.cache.evictions");
  obs::Counter& prefetches =
      obs::MetricsRegistry::global().counter("trace.cache.prefetches");
  obs::Gauge& resident_segments =
      obs::MetricsRegistry::global().gauge("trace.cache.resident_segments");
  obs::Gauge& resident_bytes =
      obs::MetricsRegistry::global().gauge("trace.cache.resident_bytes");

  static SegmentCacheMetrics& get() {
    static SegmentCacheMetrics m;
    return m;
  }
};

/// `trace.decode.*` instruments: how much work the zone maps and
/// column pruning saved.  `segments_skipped` counts segments a query
/// dismissed from the directory alone; `columns_skipped` counts
/// columns a columnar decode did not have to touch; `decoded_bytes`
/// counts compressed payload bytes actually decoded.
struct DecodeMetrics {
  obs::Counter& segments_skipped =
      obs::MetricsRegistry::global().counter("trace.decode.segments_skipped");
  obs::Counter& columns_skipped =
      obs::MetricsRegistry::global().counter("trace.decode.columns_skipped");
  obs::Counter& decoded_bytes =
      obs::MetricsRegistry::global().counter("trace.decode.decoded_bytes");

  static DecodeMetrics& get() {
    static DecodeMetrics m;
    return m;
  }
};

/// Row `k`'s field `col` as a u64 bit pattern (signed fields stored
/// two's-complement), matching `ColumnProjection::col` layout.
std::uint64_t event_field_u64(std::size_t col, const Event& e) {
  switch (col) {
    case columnar::kColKind: return static_cast<std::uint64_t>(e.kind);
    case columnar::kColRank:
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(e.rank));
    case columnar::kColMarker: return e.marker;
    case columnar::kColConstruct: return e.construct;
    case columnar::kColTStart: return static_cast<std::uint64_t>(e.t_start);
    case columnar::kColTEnd: return static_cast<std::uint64_t>(e.t_end);
    case columnar::kColPeer:
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(e.peer));
    case columnar::kColTag:
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(e.tag));
    case columnar::kColChannelSeq: return e.channel_seq;
    case columnar::kColBytes: return e.bytes;
    default: return e.wildcard ? 1 : 0;
  }
}

/// Inverse of `event_field_u64`.
void set_event_field(std::size_t col, std::uint64_t v, Event& e) {
  switch (col) {
    case columnar::kColKind: e.kind = static_cast<EventKind>(v); break;
    case columnar::kColRank: e.rank = static_cast<mpi::Rank>(v); break;
    case columnar::kColMarker: e.marker = v; break;
    case columnar::kColConstruct:
      e.construct = static_cast<ConstructId>(v);
      break;
    case columnar::kColTStart:
      e.t_start = static_cast<support::TimeNs>(v);
      break;
    case columnar::kColTEnd: e.t_end = static_cast<support::TimeNs>(v); break;
    case columnar::kColPeer:
      e.peer = static_cast<mpi::Rank>(static_cast<std::int64_t>(v));
      break;
    case columnar::kColTag:
      e.tag = static_cast<mpi::Tag>(static_cast<std::int64_t>(v));
      break;
    case columnar::kColChannelSeq: e.channel_seq = v; break;
    case columnar::kColBytes: e.bytes = v; break;
    default: e.wildcard = v != 0; break;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceStore defaults

void TraceStore::for_each_rank_in_window(mpi::Rank rank, support::TimeNs t0,
                                         support::TimeNs t1,
                                         const EventVisitor& visit) const {
  for_each_rank_event(rank, [&](std::size_t i, const Event& e) {
    if (e.t_start <= t1 && e.t_end >= t0) visit(i, e);
  });
}

// ---------------------------------------------------------------------------
// InMemoryTraceStore

InMemoryTraceStore::InMemoryTraceStore(
    int num_ranks, std::vector<Event> events,
    std::shared_ptr<const ConstructRegistry> constructs)
    : num_ranks_(num_ranks), events_(std::move(events)),
      constructs_(std::move(constructs)) {
  TDBG_CHECK(num_ranks_ > 0, "trace needs at least one rank");
  if (constructs_ == nullptr) {
    constructs_ = std::make_shared<ConstructRegistry>();
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const Event& a, const Event& b) {
                     if (a.t_start != b.t_start) return a.t_start < b.t_start;
                     if (a.rank != b.rank) return a.rank < b.rank;
                     return a.marker < b.marker;
                   });
  by_rank_.assign(static_cast<std::size_t>(num_ranks_), {});
  t_min_ = events_.empty() ? 0 : events_.front().t_start;
  t_max_ = 0;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    TDBG_CHECK(e.rank >= 0 && e.rank < num_ranks_, "event rank out of range");
    by_rank_[static_cast<std::size_t>(e.rank)].push_back(i);
    t_max_ = std::max(t_max_, e.t_end);
  }
  // Global sorting by start time can reorder same-rank events that
  // share a timestamp; restore per-rank program order by marker (the
  // marker counter is nondecreasing within a rank).
  for (auto& idx : by_rank_) {
    std::stable_sort(idx.begin(), idx.end(),
                     [this](std::size_t a, std::size_t b) {
                       if (events_[a].marker != events_[b].marker) {
                         return events_[a].marker < events_[b].marker;
                       }
                       return events_[a].t_start < events_[b].t_start;
                     });
  }
}

const std::vector<std::size_t>& InMemoryTraceStore::rank_index(
    mpi::Rank rank) const {
  TDBG_CHECK(rank >= 0 && rank < num_ranks_, "rank out of range");
  return by_rank_[static_cast<std::size_t>(rank)];
}

void InMemoryTraceStore::for_each(const EventVisitor& visit) const {
  for (std::size_t i = 0; i < events_.size(); ++i) visit(i, events_[i]);
}

void InMemoryTraceStore::for_each_in_window(support::TimeNs t0,
                                            support::TimeNs t1,
                                            const EventVisitor& visit) const {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (e.t_start > t1) break;  // sorted by start time
    if (e.t_end >= t0) visit(i, e);
  }
}

std::size_t InMemoryTraceStore::rank_size(mpi::Rank rank) const {
  return rank_index(rank).size();
}

std::size_t InMemoryTraceStore::rank_event(mpi::Rank rank,
                                           std::size_t pos) const {
  return rank_index(rank).at(pos);
}

void InMemoryTraceStore::for_each_rank_event(mpi::Rank rank,
                                             const EventVisitor& visit) const {
  for (std::size_t i : rank_index(rank)) visit(i, events_[i]);
}

std::optional<std::size_t> InMemoryTraceStore::find_marker(
    mpi::Rank rank, std::uint64_t marker) const {
  const auto& idx = rank_index(rank);
  // Program order is sorted by marker: binary search.
  const auto it = std::lower_bound(
      idx.begin(), idx.end(), marker,
      [this](std::size_t i, std::uint64_t m) { return events_[i].marker < m; });
  if (it == idx.end() || events_[*it].marker != marker) return std::nullopt;
  return *it;
}

std::size_t InMemoryTraceStore::segment_count() const {
  return (events_.size() + kInMemorySegmentEvents - 1) / kInMemorySegmentEvents;
}

std::pair<std::size_t, std::size_t> InMemoryTraceStore::segment_range(
    std::size_t seg) const {
  TDBG_CHECK(seg < segment_count(), "segment index out of range");
  const std::size_t begin = seg * kInMemorySegmentEvents;
  return {begin, std::min(begin + kInMemorySegmentEvents, events_.size())};
}

void InMemoryTraceStore::for_each_in_segment(std::size_t seg,
                                             const EventVisitor& visit) const {
  const auto [begin, end] = segment_range(seg);
  for (std::size_t i = begin; i < end; ++i) visit(i, events_[i]);
}

std::optional<std::size_t> InMemoryTraceStore::last_event_at_or_before(
    mpi::Rank rank, support::TimeNs t) const {
  const auto& idx = rank_index(rank);
  // Per-rank start times are nondecreasing in program order (each
  // rank's clock is monotone), so the answer is a partition point.
  const auto it = std::partition_point(
      idx.begin(), idx.end(),
      [this, t](std::size_t i) { return events_[i].t_start <= t; });
  if (it == idx.begin()) return std::nullopt;
  return *(it - 1);
}

// ---------------------------------------------------------------------------
// SegmentedTraceStore

SegmentedTraceStore::SegmentedTraceStore(std::filesystem::path path,
                                         int num_ranks, wire::Footer footer,
                                         std::size_t cache_segments,
                                         bool prefetch)
    : path_(std::move(path)), footer_(std::move(footer)),
      num_ranks_(num_ranks), prefetch_enabled_(prefetch),
      cache_segments_(std::max<std::size_t>(1, cache_segments)) {
  TDBG_CHECK(num_ranks_ > 0, "trace needs at least one rank");
  TDBG_CHECK(footer_.display_sorted() && footer_.rank_markers_monotone(),
             "segmented store requires a sorted v2/v3 trace");
  auto registry = std::make_shared<ConstructRegistry>();
  registry->restore(footer_.constructs);
  constructs_ = std::move(registry);

  const std::size_t nseg = footer_.segments.size();
  seg_first_index_.assign(nseg + 1, 0);
  rank_first_pos_.assign(static_cast<std::size_t>(num_ranks_),
                         std::vector<std::size_t>(nseg + 1, 0));
  for (std::size_t s = 0; s < nseg; ++s) {
    const auto& seg = footer_.segments[s];
    TDBG_CHECK(seg.ranks.size() == static_cast<std::size_t>(num_ranks_),
               "trace directory rank-table width mismatch");
    seg_first_index_[s + 1] = seg_first_index_[s] + seg.count;
    for (int r = 0; r < num_ranks_; ++r) {
      rank_first_pos_[r][s + 1] =
          rank_first_pos_[r][s] + seg.ranks[static_cast<std::size_t>(r)].count;
    }
  }
  if (seg_first_index_[nseg] != footer_.event_count) {
    throw FormatError("trace directory event count mismatch in " +
                      path_.string());
  }
  // Opened after the last check that can throw, so a rejected
  // directory leaks no descriptor.
  fd_ = ::open(path_.c_str(), O_RDONLY);
  if (fd_ < 0) {
    throw IoError("cannot open trace file: " + path_.string());
  }
  if (nseg > 0) {
    t_min_ = footer_.segments.front().t_min;
    for (const auto& seg : footer_.segments) {
      t_max_ = std::max(t_max_, seg.t_max);
    }
  }
  cache_.assign(nseg, nullptr);
  if (footer_.version == 3) {
    // The compressed tier gets the byte budget that `cache_segments`
    // decoded segments would have cost as v2 rows — same memory
    // envelope, several times more resident trace.
    blob_budget_ = cache_segments_ *
                   static_cast<std::size_t>(footer_.segment_events) *
                   wire::kEventRecordBytes;
    blob_cache_.assign(nseg, nullptr);
    // The projection tier gets the RAM the decoded-row LRU is allowed;
    // narrow projections (8 bytes per selected column per event) make
    // that envelope cover several times more trace than full rows.
    proj_budget_ = cache_segments_ *
                   static_cast<std::size_t>(footer_.segment_events) *
                   sizeof(Event);
  }
}

std::size_t SegmentedTraceStore::segment_of_index(std::size_t i) const {
  TDBG_CHECK(i < size(), "event index out of range");
  const auto it = std::upper_bound(seg_first_index_.begin(),
                                   seg_first_index_.end(), i);
  return static_cast<std::size_t>(it - seg_first_index_.begin()) - 1;
}

SegmentedTraceStore::~SegmentedTraceStore() {
  {
    std::unique_lock lk(prefetch_mu_);
    prefetch_cv_.wait(lk, [this] { return prefetch_inflight_ == 0; });
  }
  if (fd_ >= 0) ::close(fd_);
}

SegmentedTraceStore::BlobPtr SegmentedTraceStore::blob(std::size_t seg) const {
  {
    std::lock_guard lk(blob_mu_);
    if (!blob_cache_.empty() && blob_cache_[seg]) {
      ++blob_hits_;
      blob_lru_.remove(seg);
      blob_lru_.push_front(seg);
      return blob_cache_[seg];
    }
  }
  const auto& meta = footer_.segments[seg];
  auto bytes = std::make_shared<std::vector<std::byte>>(meta.byte_len);
  std::size_t got = 0;
  while (got < bytes->size()) {
    const ssize_t n = ::pread(fd_, bytes->data() + got, bytes->size() - got,
                              static_cast<off_t>(meta.offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw IoError("trace segment read failed: " + path_.string());
    }
    got += static_cast<std::size_t>(n);
  }
  std::lock_guard lk(blob_mu_);
  ++blob_loads_;
  if (blob_cache_.empty() || blob_budget_ == 0) return bytes;
  if (!blob_cache_[seg]) {
    while (blob_bytes_ + bytes->size() > blob_budget_ && !blob_lru_.empty()) {
      const std::size_t victim = blob_lru_.back();
      blob_lru_.pop_back();
      blob_bytes_ -= blob_cache_[victim]->size();
      blob_cache_[victim] = nullptr;
    }
    blob_cache_[seg] = bytes;
    blob_lru_.push_front(seg);
    blob_bytes_ += bytes->size();
  }
  return bytes;
}

SegmentedTraceStore::SegmentPtr SegmentedTraceStore::resident_segment(
    std::size_t seg) const {
  std::lock_guard lk(mu_);
  if (!cache_[seg]) return nullptr;
  ++stats_.hits;
  SegmentCacheMetrics::get().hits.add(-1);
  lru_.remove(seg);
  lru_.push_front(seg);
  return cache_[seg];
}

SegmentedTraceStore::ProjectionPtr SegmentedTraceStore::projection(
    std::size_t seg, ColumnSet cols) const {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(seg) << wire::kNumColumnsV3) | cols;
  {
    std::lock_guard lk(proj_mu_);
    const auto it = proj_map_.find(key);
    if (it != proj_map_.end()) {
      proj_lru_.splice(proj_lru_.begin(), proj_lru_, it->second);
      ++proj_hits_;
      return it->second->second;
    }
  }
  const auto bytes = blob(seg);
  thread_local std::vector<Event> events;
  const auto res =
      columnar::decode_segment(*bytes, cols, num_ranks_, events, path_, seg);
  auto& m = DecodeMetrics::get();
  m.decoded_bytes.add(-1, res.decoded_bytes);
  m.columns_skipped.add(
      -1, wire::kNumColumnsV3 -
              static_cast<std::uint64_t>(std::popcount(res.decoded_cols)));
  auto proj = std::make_shared<ColumnProjection>();
  proj->cols = cols;
  const std::size_t n = events.size();
  for (std::size_t c = 0; c < wire::kNumColumnsV3; ++c) {
    if ((cols & (1u << c)) == 0) continue;
    auto& vals = proj->col[c];
    vals.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      vals[k] = event_field_u64(c, events[k]);
    }
    proj->bytes += n * sizeof(std::uint64_t);
  }
  std::lock_guard lk(proj_mu_);
  if (proj_map_.find(key) == proj_map_.end()) {
    proj_lru_.emplace_front(key, proj);
    proj_map_[key] = proj_lru_.begin();
    proj_bytes_ += proj->bytes;
    ++proj_loads_;
    while (proj_bytes_ > proj_budget_ && proj_lru_.size() > 1) {
      const auto& victim = proj_lru_.back();
      proj_bytes_ -= victim.second->bytes;
      proj_map_.erase(victim.first);
      proj_lru_.pop_back();
    }
  }
  return proj;
}

SegmentedTraceStore::SegmentPtr SegmentedTraceStore::load_segment(
    std::size_t seg) const {
  const auto& meta = footer_.segments[seg];
  const auto bytes = blob(seg);

  auto loaded = std::make_shared<LoadedSegment>();
  loaded->rank_positions.assign(static_cast<std::size_t>(num_ranks_), {});
  if (footer_.version == 3) {
    const auto res = columnar::decode_segment(
        *bytes, columnar::kAllColumns, num_ranks_, loaded->events, path_, seg);
    DecodeMetrics::get().decoded_bytes.add(-1, res.decoded_bytes);
    for (std::size_t k = 0; k < loaded->events.size(); ++k) {
      loaded->rank_positions[static_cast<std::size_t>(loaded->events[k].rank)]
          .push_back(static_cast<std::uint32_t>(k));
    }
    return loaded;
  }
  loaded->events.reserve(meta.count);
  support::BinaryReader r(*bytes);
  for (std::uint64_t k = 0; k < meta.count; ++k) {
    const auto tag = r.get<std::uint8_t>();
    if (tag != wire::kRecordEvent) {
      throw FormatError("corrupt trace segment in " + path_.string());
    }
    const auto kind = std::to_integer<std::uint8_t>((*bytes)[r.position()]);
    if (!wire::valid_event_kind(kind)) {
      throw FormatError(
          "unknown event kind " + std::to_string(kind) + " in trace file " +
          path_.string() + " at offset " +
          std::to_string(meta.offset + k * wire::kEventRecordBytes + 1));
    }
    Event e = wire::decode_event(r);
    if (e.rank < 0 || e.rank >= num_ranks_) {
      throw FormatError("event rank " + std::to_string(e.rank) +
                        " outside [0, " + std::to_string(num_ranks_) +
                        ") in trace file " + path_.string() + " at offset " +
                        std::to_string(meta.offset + k * wire::kEventRecordBytes));
    }
    loaded->rank_positions[static_cast<std::size_t>(e.rank)].push_back(
        static_cast<std::uint32_t>(k));
    loaded->events.push_back(e);
  }
  return loaded;
}

void SegmentedTraceStore::install(std::size_t seg,
                                  const SegmentPtr& loaded) const {
  const auto seg_bytes = [](const LoadedSegment& s) {
    std::size_t b = s.events.size() * sizeof(Event);
    for (const auto& v : s.rank_positions) b += v.size() * sizeof(std::uint32_t);
    return b;
  };
  auto& metrics = SegmentCacheMetrics::get();
  while (lru_.size() >= cache_segments_) {
    const std::size_t victim = lru_.back();
    lru_.pop_back();
    stats_.resident_bytes -= seg_bytes(*cache_[victim]);
    cache_[victim] = nullptr;
    ++stats_.evictions;
    metrics.evictions.add(-1);
  }
  cache_[seg] = loaded;
  lru_.push_front(seg);
  ++stats_.loads;
  metrics.loads.add(-1);
  stats_.resident_bytes += seg_bytes(*loaded);
  stats_.resident_segments = lru_.size();
  metrics.resident_segments.set(-1, stats_.resident_segments);
  metrics.resident_bytes.set(-1, stats_.resident_bytes);
}

SegmentedTraceStore::SegmentPtr SegmentedTraceStore::segment(
    std::size_t seg) const {
  std::shared_future<SegmentPtr> pending;
  std::promise<SegmentPtr> promise;
  bool loader = false;
  {
    std::lock_guard lk(mu_);
    if (cache_[seg]) {
      ++stats_.hits;
      SegmentCacheMetrics::get().hits.add(-1);
      lru_.remove(seg);
      lru_.push_front(seg);
      return cache_[seg];
    }
    const auto it = loading_.find(seg);
    if (it != loading_.end()) {
      // Someone is already reading this segment: share its result.
      ++stats_.hits;
      SegmentCacheMetrics::get().hits.add(-1);
      pending = it->second;
    } else {
      loader = true;
      pending = promise.get_future().share();
      loading_.emplace(seg, pending);
    }
  }
  if (!loader) return pending.get();  // rethrows the loader's error

  // IO + decode run outside the lock: concurrent misses on *different*
  // segments proceed in parallel through pread.
  try {
    auto loaded = load_segment(seg);
    {
      std::lock_guard lk(mu_);
      install(seg, loaded);
      loading_.erase(seg);
    }
    promise.set_value(loaded);
    return loaded;
  } catch (...) {
    {
      std::lock_guard lk(mu_);
      loading_.erase(seg);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

void SegmentedTraceStore::maybe_prefetch(std::size_t seg) const {
  if (!prefetch_enabled_ || seg >= footer_.segments.size()) return;
  auto& pool = exec::Executor::global();
  if (pool.threads() <= 1) return;
  {
    std::lock_guard lk(mu_);
    if (cache_[seg] || loading_.count(seg) != 0) return;
    ++stats_.prefetches;
    SegmentCacheMetrics::get().prefetches.add(-1);
  }
  {
    std::lock_guard lk(prefetch_mu_);
    ++prefetch_inflight_;
  }
  pool.async([this, seg] {
    try {
      (void)segment(seg);
    } catch (...) {
      // A failing read-ahead is dropped; the demand read surfaces the
      // error on the consuming thread.
    }
    std::lock_guard lk(prefetch_mu_);
    --prefetch_inflight_;
    prefetch_cv_.notify_all();
  });
}

SegmentCacheStats SegmentedTraceStore::cache_stats() const {
  SegmentCacheStats s;
  {
    std::lock_guard lk(mu_);
    s = stats_;
    s.resident_segments = lru_.size();
  }
  {
    std::lock_guard lk(blob_mu_);
    s.blob_loads = blob_loads_;
    s.blob_hits = blob_hits_;
    s.compressed_segments = blob_lru_.size();
    s.compressed_bytes = blob_bytes_;
  }
  std::lock_guard lk(proj_mu_);
  s.projection_loads = proj_loads_;
  s.projection_hits = proj_hits_;
  s.projections = proj_lru_.size();
  s.projection_bytes = proj_bytes_;
  return s;
}

std::optional<SegmentZones> SegmentedTraceStore::segment_zones(
    std::size_t seg) const {
  TDBG_CHECK(seg < footer_.segments.size(), "segment index out of range");
  const auto& meta = footer_.segments[seg];
  SegmentZones z;
  z.t_min = meta.t_min;
  z.t_max = meta.t_max;
  if (footer_.version == 3 && meta.zones.size() == wire::kNumColumnsV3) {
    z.kind_mask = meta.kind_mask;
    z.rank_mask = meta.rank_mask;
    z.may_have_wildcard = meta.zones[columnar::kColWildcard].hi != 0;
  } else {
    // v2 directory: no presence masks were recorded — report the
    // conservative "anything may appear" summary, with the rank mask
    // recovered from the per-rank counts.
    z.kind_mask = (1u << (wire::kMaxEventKind + 1)) - 1;
    for (int r = 0; r < num_ranks_; ++r) {
      if (meta.ranks[static_cast<std::size_t>(r)].count > 0) {
        z.rank_mask |= std::uint64_t{1} << std::min(r, 63);
      }
    }
    z.may_have_wildcard = true;
  }
  return z;
}

void SegmentedTraceStore::for_each_in_segment_cols(
    std::size_t s, ColumnSet cols, const EventVisitor& visit) const {
  TDBG_CHECK(s < footer_.segments.size(), "segment index out of range");
  if (footer_.version != 3) {
    for_each_in_segment(s, visit);
    return;
  }
  const std::size_t base = seg_first_index_[s];
  if (const auto seg = resident_segment(s)) {
    // A full decode is already resident: reuse it, no codec work.
    for (std::size_t k = 0; k < seg->events.size(); ++k) {
      visit(base + k, seg->events[k]);
    }
    return;
  }
  const auto bytes = blob(s);
  thread_local std::vector<Event> events;
  const auto res =
      columnar::decode_segment(*bytes, cols, num_ranks_, events, path_, s);
  auto& m = DecodeMetrics::get();
  m.decoded_bytes.add(-1, res.decoded_bytes);
  m.columns_skipped.add(
      -1, wire::kNumColumnsV3 -
              static_cast<std::uint64_t>(std::popcount(res.decoded_cols)));
  for (std::size_t k = 0; k < events.size(); ++k) {
    visit(base + k, events[k]);
  }
}

void SegmentedTraceStore::for_each_rank_in_window(
    mpi::Rank rank, support::TimeNs t0, support::TimeNs t1,
    const EventVisitor& visit) const {
  TDBG_CHECK(rank >= 0 && rank < num_ranks_, "rank out of range");
  auto& m = DecodeMetrics::get();
  // Segment t_min values are nondecreasing: nothing past the partition
  // point can intersect the window.
  const auto hi = std::partition_point(
      footer_.segments.begin(), footer_.segments.end(),
      [t1](const wire::SegmentMeta& sm) { return sm.t_min <= t1; });
  const auto nseg = static_cast<std::size_t>(hi - footer_.segments.begin());
  const auto r = static_cast<std::size_t>(rank);
  for (std::size_t s = 0; s < nseg; ++s) {
    const auto& meta = footer_.segments[s];
    if (meta.ranks[r].count == 0) continue;  // rank absent: free skip
    if (meta.t_max < t0) {
      m.segments_skipped.add(-1);  // zone skip: a naive scan loads this
      continue;
    }
    const std::size_t base = seg_first_index_[s];
    if (const auto seg = resident_segment(s)) {
      for (std::uint32_t k : seg->rank_positions[r]) {
        const Event& e = seg->events[k];
        if (e.t_start > t1) return;  // per-rank starts are nondecreasing
        if (e.t_end >= t0) visit(base + k, e);
      }
      continue;
    }
    if (footer_.version != 3) {
      const auto seg = segment(s);
      for (std::uint32_t k : seg->rank_positions[r]) {
        const Event& e = seg->events[k];
        if (e.t_start > t1) return;
        if (e.t_end >= t0) visit(base + k, e);
      }
      continue;
    }
    // v3: peek at the rank/time columns first; only a segment that
    // actually holds a matching row pays for the other eight columns.
    // The probe comes from the projection cache, so repeated window
    // queries over the same region skip even the narrow decode.
    const auto probe = projection(s, kColRank | kColTStart | kColTEnd);
    const auto& rk = probe->col[columnar::kColRank];
    const auto& ts = probe->col[columnar::kColTStart];
    const auto& te = probe->col[columnar::kColTEnd];
    bool match = false;
    bool past = false;
    for (std::size_t k = 0; k < rk.size(); ++k) {
      if (rk[k] != static_cast<std::uint64_t>(r)) continue;
      if (static_cast<support::TimeNs>(ts[k]) > t1) {
        past = true;
        break;
      }
      if (static_cast<support::TimeNs>(te[k]) >= t0) {
        match = true;
        break;
      }
    }
    if (!match) {
      if (past) return;
      continue;
    }
    // A confirmed hit pays the full decode once via the shared cache so
    // repeated window queries over the same hot region reuse it.
    const auto seg = segment(s);
    for (std::uint32_t k : seg->rank_positions[r]) {
      const Event& e = seg->events[k];
      if (e.t_start > t1) return;
      if (e.t_end >= t0) visit(base + k, e);
    }
  }
}

void SegmentedTraceStore::for_each_rank_in_window_cols(
    mpi::Rank rank, support::TimeNs t0, support::TimeNs t1, ColumnSet cols,
    const EventVisitor& visit) const {
  TDBG_CHECK(rank >= 0 && rank < num_ranks_, "rank out of range");
  if (footer_.version != 3) {
    for_each_rank_in_window(rank, t0, t1, visit);
    return;
  }
  auto& m = DecodeMetrics::get();
  const auto hi = std::partition_point(
      footer_.segments.begin(), footer_.segments.end(),
      [t1](const wire::SegmentMeta& sm) { return sm.t_min <= t1; });
  const auto nseg = static_cast<std::size_t>(hi - footer_.segments.begin());
  const auto r = static_cast<std::size_t>(rank);
  // The probe columns are required to evaluate the predicate itself.
  const ColumnSet want = cols | kColRank | kColTStart | kColTEnd;
  for (std::size_t s = 0; s < nseg; ++s) {
    const auto& meta = footer_.segments[s];
    if (meta.ranks[r].count == 0) continue;
    if (meta.t_max < t0) {
      m.segments_skipped.add(-1);
      continue;
    }
    const std::size_t base = seg_first_index_[s];
    if (const auto seg = resident_segment(s)) {
      for (std::uint32_t k : seg->rank_positions[r]) {
        const Event& e = seg->events[k];
        if (e.t_start > t1) return;
        if (e.t_end >= t0) visit(base + k, e);
      }
      continue;
    }
    // Not resident: answer from the projection of just the requested
    // columns — the caller has promised not to look at the rest, so
    // matching rows materialize partially-populated events on the
    // stack without ever building a full segment.  The projection
    // stays cached, so the next window over this region decodes
    // nothing at all.
    const auto proj = projection(s, want);
    const auto& rk = proj->col[columnar::kColRank];
    const auto& ts = proj->col[columnar::kColTStart];
    const auto& te = proj->col[columnar::kColTEnd];
    for (std::size_t k = 0; k < rk.size(); ++k) {
      if (rk[k] != static_cast<std::uint64_t>(r)) continue;
      if (static_cast<support::TimeNs>(ts[k]) > t1) return;
      if (static_cast<support::TimeNs>(te[k]) < t0) continue;
      Event e;
      for (std::size_t c = 0; c < wire::kNumColumnsV3; ++c) {
        if ((want & (1u << c)) != 0) set_event_field(c, proj->col[c][k], e);
      }
      visit(base + k, e);
    }
  }
}

Event SegmentedTraceStore::event(std::size_t i) const {
  const std::size_t s = segment_of_index(i);
  return segment(s)->events[i - seg_first_index_[s]];
}

std::pair<std::size_t, std::size_t> SegmentedTraceStore::segment_range(
    std::size_t seg) const {
  TDBG_CHECK(seg < footer_.segments.size(), "segment index out of range");
  return {seg_first_index_[seg], seg_first_index_[seg + 1]};
}

void SegmentedTraceStore::for_each_in_segment(std::size_t s,
                                              const EventVisitor& visit) const {
  TDBG_CHECK(s < footer_.segments.size(), "segment index out of range");
  const auto seg = segment(s);
  const std::size_t base = seg_first_index_[s];
  for (std::size_t k = 0; k < seg->events.size(); ++k) {
    visit(base + k, seg->events[k]);
  }
}

void SegmentedTraceStore::for_each(const EventVisitor& visit) const {
  if (footer_.version == 3) {
    // Streaming sweep: decode each block one tile at a time and move
    // on.  A full pass touches every segment exactly once, so
    // materializing LoadedSegments (row copies, per-rank position
    // indexes, LRU churn) would be pure overhead; segments already
    // resident (or prefetched) are still reused for free.
    auto& m = DecodeMetrics::get();
    for (std::size_t s = 0; s < footer_.segments.size(); ++s) {
      maybe_prefetch(s + 1);
      const std::size_t base = seg_first_index_[s];
      if (const auto seg = resident_segment(s)) {
        for (std::size_t k = 0; k < seg->events.size(); ++k) {
          visit(base + k, seg->events[k]);
        }
        continue;
      }
      const auto bytes = blob(s);
      // Fused decode+visit: rows are delivered one L1-sized tile at a
      // time, so the sweep never writes and re-reads a multi-MB run of
      // decoded events.
      const auto res = columnar::decode_segment_visit(
          *bytes, num_ranks_, base, visit, path_, s);
      m.decoded_bytes.add(-1, res.decoded_bytes);
    }
    return;
  }
  for (std::size_t s = 0; s < footer_.segments.size(); ++s) {
    maybe_prefetch(s + 1);  // decode k+1 on the pool while we consume k
    const auto seg = segment(s);
    const std::size_t base = seg_first_index_[s];
    for (std::size_t k = 0; k < seg->events.size(); ++k) {
      visit(base + k, seg->events[k]);
    }
  }
}

void SegmentedTraceStore::for_each_in_window(support::TimeNs t0,
                                             support::TimeNs t1,
                                             const EventVisitor& visit) const {
  // Segment t_min values are nondecreasing (the stream is sorted by
  // t_start): every segment past the last one with t_min <= t1 starts
  // after the window.
  const auto hi = std::partition_point(
      footer_.segments.begin(), footer_.segments.end(),
      [t1](const wire::SegmentMeta& m) { return m.t_min <= t1; });
  const auto nseg =
      static_cast<std::size_t>(hi - footer_.segments.begin());
  for (std::size_t s = 0; s < nseg; ++s) {
    if (footer_.segments[s].t_max < t0) {
      DecodeMetrics::get().segments_skipped.add(-1);  // directory-only skip
      continue;
    }
    if (s + 1 < nseg && footer_.segments[s + 1].t_max >= t0) {
      maybe_prefetch(s + 1);
    }
    const auto seg = segment(s);
    const std::size_t base = seg_first_index_[s];
    for (std::size_t k = 0; k < seg->events.size(); ++k) {
      const Event& e = seg->events[k];
      if (e.t_start > t1) return;  // sorted by start time
      if (e.t_end >= t0) visit(base + k, e);
    }
  }
}

std::size_t SegmentedTraceStore::rank_size(mpi::Rank rank) const {
  TDBG_CHECK(rank >= 0 && rank < num_ranks_, "rank out of range");
  return rank_first_pos_[static_cast<std::size_t>(rank)].back();
}

std::size_t SegmentedTraceStore::rank_event(mpi::Rank rank,
                                            std::size_t pos) const {
  TDBG_CHECK(pos < rank_size(rank), "rank event position out of range");
  const auto& first_pos = rank_first_pos_[static_cast<std::size_t>(rank)];
  const auto it =
      std::upper_bound(first_pos.begin(), first_pos.end(), pos);
  const auto s = static_cast<std::size_t>(it - first_pos.begin()) - 1;
  const auto seg = segment(s);
  const auto& positions = seg->rank_positions[static_cast<std::size_t>(rank)];
  return seg_first_index_[s] + positions[pos - first_pos[s]];
}

void SegmentedTraceStore::for_each_rank_event(mpi::Rank rank,
                                              const EventVisitor& visit) const {
  TDBG_CHECK(rank >= 0 && rank < num_ranks_, "rank out of range");
  const std::size_t nseg = footer_.segments.size();
  for (std::size_t s = 0; s < nseg; ++s) {
    const auto& meta = footer_.segments[s];
    if (meta.ranks[static_cast<std::size_t>(rank)].count == 0) continue;
    if (s + 1 < nseg &&
        footer_.segments[s + 1].ranks[static_cast<std::size_t>(rank)].count >
            0) {
      maybe_prefetch(s + 1);
    }
    const auto seg = segment(s);
    const std::size_t base = seg_first_index_[s];
    for (std::uint32_t k : seg->rank_positions[static_cast<std::size_t>(rank)]) {
      visit(base + k, seg->events[k]);
    }
  }
}

std::optional<std::size_t> SegmentedTraceStore::find_marker(
    mpi::Rank rank, std::uint64_t marker) const {
  TDBG_CHECK(rank >= 0 && rank < num_ranks_, "rank out of range");
  // Per-rank markers are nondecreasing across the stream, so the first
  // segment whose marker_hi reaches `marker` is the only candidate
  // holding its first occurrence.
  for (std::size_t s = 0; s < footer_.segments.size(); ++s) {
    const auto& rk = footer_.segments[s].ranks[static_cast<std::size_t>(rank)];
    if (rk.count == 0 || rk.marker_hi < marker) continue;
    if (rk.marker_lo > marker) return std::nullopt;
    const auto seg = segment(s);
    const auto& positions =
        seg->rank_positions[static_cast<std::size_t>(rank)];
    const auto it = std::lower_bound(
        positions.begin(), positions.end(), marker,
        [&](std::uint32_t p, std::uint64_t m) {
          return seg->events[p].marker < m;
        });
    if (it == positions.end() || seg->events[*it].marker != marker) {
      return std::nullopt;
    }
    return seg_first_index_[s] + *it;
  }
  return std::nullopt;
}

std::optional<std::size_t> SegmentedTraceStore::last_event_at_or_before(
    mpi::Rank rank, support::TimeNs t) const {
  TDBG_CHECK(rank >= 0 && rank < num_ranks_, "rank out of range");
  // Candidate: the last segment with rank events whose t_min <= t.
  // Everything in earlier segments starts no later than that
  // segment's first event, so at most two segment loads resolve the
  // query.
  const auto hi = std::partition_point(
      footer_.segments.begin(), footer_.segments.end(),
      [t](const wire::SegmentMeta& m) { return m.t_min <= t; });
  auto s = static_cast<std::size_t>(hi - footer_.segments.begin());
  while (s > 0) {
    --s;
    const auto& rk = footer_.segments[s].ranks[static_cast<std::size_t>(rank)];
    if (rk.count == 0) continue;
    const auto seg = segment(s);
    const auto& positions =
        seg->rank_positions[static_cast<std::size_t>(rank)];
    const auto it = std::partition_point(
        positions.begin(), positions.end(),
        [&](std::uint32_t p) { return seg->events[p].t_start <= t; });
    if (it == positions.begin()) continue;  // all start after t: step back
    return seg_first_index_[s] + *(it - 1);
  }
  return std::nullopt;
}

}  // namespace tdbg::trace
