#pragma once

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpi/types.hpp"
#include "support/clock.hpp"
#include "trace/construct_registry.hpp"
#include "trace/event.hpp"
#include "trace/wire.hpp"

/// \file store.hpp
/// Storage backends behind `trace::Trace`.
///
/// `Trace` is a thin query facade; the event history itself lives in a
/// `TraceStore`.  Two implementations exist:
///
///   - `InMemoryTraceStore` — the seed behavior: every event in one
///     sorted vector plus per-rank index vectors.  Built by the
///     collector, by `read_trace`, and by tests.
///   - `SegmentedTraceStore` — a v2 trace file opened by its footer
///     directory alone.  Event segments are loaded lazily on first
///     touch and held in a small LRU cache, so opening a 10M-event
///     trace costs O(directory) and a zoomed window query touches only
///     the segments it intersects.
///
/// All indices exchanged through this interface are *global display
/// indices*: positions in the trace-wide (t_start, rank, marker)
/// order, identical across both backends for the same history.

namespace tdbg::trace {

/// Visitor for event cursors.  Receives the event's global display
/// index and a reference that is only valid during the call (the
/// segmented store may evict the backing segment afterwards) — copy
/// the event if it must outlive the visit.
using EventVisitor = std::function<void(std::size_t index, const Event& e)>;

/// Bitmask selecting a subset of event fields for column-pruned
/// scans.  Bit i selects storage column i of the v3 columnar format
/// (see columnar.hpp for the fixed order).  The mask is a *permission*:
/// a columnar backend decodes only the selected columns and leaves the
/// other fields of the visited events value-initialized; row-major and
/// in-memory backends ignore it and deliver full events.
using ColumnSet = std::uint32_t;
inline constexpr ColumnSet kColKind = 1u << 0;
inline constexpr ColumnSet kColRank = 1u << 1;
inline constexpr ColumnSet kColMarker = 1u << 2;
inline constexpr ColumnSet kColConstruct = 1u << 3;
inline constexpr ColumnSet kColTStart = 1u << 4;
inline constexpr ColumnSet kColTEnd = 1u << 5;
inline constexpr ColumnSet kColPeer = 1u << 6;
inline constexpr ColumnSet kColTag = 1u << 7;
inline constexpr ColumnSet kColChannelSeq = 1u << 8;
inline constexpr ColumnSet kColBytes = 1u << 9;
inline constexpr ColumnSet kColWildcard = 1u << 10;
inline constexpr ColumnSet kAllEventColumns = (1u << wire::kNumColumnsV3) - 1;

/// Zone summary of one segment, from the trace directory: which event
/// kinds and ranks appear, whether a wildcard receive may appear, and
/// the segment's time span.  Query layers use it to skip whole
/// segments — or decode fewer columns — without touching event data.
struct SegmentZones {
  std::uint32_t kind_mask = 0;  ///< bit k set iff some event has kind k
  std::uint64_t rank_mask = 0;  ///< bit min(rank, 63) set iff rank appears
  bool may_have_wildcard = false;
  support::TimeNs t_min = 0;
  support::TimeNs t_max = 0;
};

/// Read-only random/sequential access to one recorded history.
class TraceStore {
 public:
  virtual ~TraceStore() = default;

  [[nodiscard]] virtual int num_ranks() const = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual support::TimeNs t_min() const = 0;
  [[nodiscard]] virtual support::TimeNs t_max() const = 0;
  [[nodiscard]] virtual std::shared_ptr<const ConstructRegistry> constructs()
      const = 0;

  /// The event at global display index `i` (by value: the backing
  /// segment may be evicted as soon as this returns).
  [[nodiscard]] virtual Event event(std::size_t i) const = 0;

  /// Visits every event in display order.
  virtual void for_each(const EventVisitor& visit) const = 0;

  /// Visits the events whose [t_start, t_end] intersects [t0, t1], in
  /// display order.  The segmented store prunes whole segments via the
  /// directory's [t_min, t_max] before touching event data.
  virtual void for_each_in_window(support::TimeNs t0, support::TimeNs t1,
                                  const EventVisitor& visit) const = 0;

  /// Number of events recorded by `rank`.
  [[nodiscard]] virtual std::size_t rank_size(mpi::Rank rank) const = 0;

  /// Global display index of `rank`'s `pos`-th event in that rank's
  /// program order.
  [[nodiscard]] virtual std::size_t rank_event(mpi::Rank rank,
                                               std::size_t pos) const = 0;

  /// Visits one rank's events in program order.
  virtual void for_each_rank_event(mpi::Rank rank,
                                   const EventVisitor& visit) const = 0;

  /// First event of `rank` whose marker equals `marker`, if any.
  [[nodiscard]] virtual std::optional<std::size_t> find_marker(
      mpi::Rank rank, std::uint64_t marker) const = 0;

  /// Last event of `rank` whose start time is <= `t`, if any.
  [[nodiscard]] virtual std::optional<std::size_t> last_event_at_or_before(
      mpi::Rank rank, support::TimeNs t) const = 0;

  // --- Segment view (the unit of analysis parallelism) ----------------
  //
  // Both backends expose the stream as consecutive display-order
  // segments: the v2 file's directory segments for the lazy store,
  // fixed-size chunks for the in-memory store.  Segment boundaries
  // depend only on the history (never on thread count), which is what
  // lets `Trace::map_reduce` merge per-segment partials in segment
  // order and produce bit-identical results at any parallelism.

  /// Number of segments (0 for an empty trace).
  [[nodiscard]] virtual std::size_t segment_count() const = 0;

  /// Global display-index range [begin, end) of segment `seg`.
  [[nodiscard]] virtual std::pair<std::size_t, std::size_t> segment_range(
      std::size_t seg) const = 0;

  /// Visits segment `seg`'s events in display order.  Safe to call
  /// concurrently from pool workers on different (or the same)
  /// segments.
  virtual void for_each_in_segment(std::size_t seg,
                                   const EventVisitor& visit) const = 0;

  /// Zone summary of segment `seg`, when the backend has one.  A v3
  /// footer carries exact presence masks; a v2 footer yields a
  /// conservative summary (every kind possible, rank mask from the
  /// per-rank counts); the in-memory store has none.
  [[nodiscard]] virtual std::optional<SegmentZones> segment_zones(
      std::size_t seg) const {
    (void)seg;
    return std::nullopt;
  }

  /// Like `for_each_in_segment`, but the caller promises to read only
  /// the fields selected by `cols` — a columnar backend decodes just
  /// those columns (leaving the rest value-initialized) and skips the
  /// decoded-segment cache.  Default: full events.  Thread-safe.
  virtual void for_each_in_segment_cols(std::size_t seg, ColumnSet cols,
                                        const EventVisitor& visit) const {
    (void)cols;
    for_each_in_segment(seg, visit);
  }

  /// Visits `rank`'s events whose [t_start, t_end] intersects
  /// [t0, t1], in program order.  The segmented store prunes whole
  /// segments through the directory (time spans, per-rank counts) and,
  /// on a v3 file, peeks at the rank/time columns of the surviving
  /// segments before paying a full decode.
  virtual void for_each_rank_in_window(mpi::Rank rank, support::TimeNs t0,
                                       support::TimeNs t1,
                                       const EventVisitor& visit) const;

  /// Like `for_each_rank_in_window`, but the caller promises to read
  /// only the fields selected by `cols` (the timeline-zoom shape:
  /// rank + marker + times).  A columnar backend answers from the
  /// rank/time probe columns plus `cols` alone, never materializing
  /// full events; other backends deliver full events.  Thread-safe.
  virtual void for_each_rank_in_window_cols(mpi::Rank rank,
                                            support::TimeNs t0,
                                            support::TimeNs t1,
                                            ColumnSet cols,
                                            const EventVisitor& visit) const {
    (void)cols;
    for_each_rank_in_window(rank, t0, t1, visit);
  }
};

/// Chunk size the in-memory store presents as its "segments".  Small
/// enough that moderate test traces parallelize, fixed so results
/// never depend on thread count.
inline constexpr std::size_t kInMemorySegmentEvents = 1u << 13;

/// The seed storage: one eagerly sorted vector plus per-rank indexes.
///
/// Accepts events in any order; sorts them into display order and
/// rebuilds per-rank program order by marker, exactly as the original
/// `Trace` constructor did.
class InMemoryTraceStore final : public TraceStore {
 public:
  InMemoryTraceStore(int num_ranks, std::vector<Event> events,
                     std::shared_ptr<const ConstructRegistry> constructs);

  [[nodiscard]] int num_ranks() const override { return num_ranks_; }
  [[nodiscard]] std::size_t size() const override { return events_.size(); }
  [[nodiscard]] support::TimeNs t_min() const override { return t_min_; }
  [[nodiscard]] support::TimeNs t_max() const override { return t_max_; }
  [[nodiscard]] std::shared_ptr<const ConstructRegistry> constructs()
      const override {
    return constructs_;
  }

  [[nodiscard]] Event event(std::size_t i) const override {
    return events_.at(i);
  }
  void for_each(const EventVisitor& visit) const override;
  void for_each_in_window(support::TimeNs t0, support::TimeNs t1,
                          const EventVisitor& visit) const override;
  [[nodiscard]] std::size_t rank_size(mpi::Rank rank) const override;
  [[nodiscard]] std::size_t rank_event(mpi::Rank rank,
                                       std::size_t pos) const override;
  void for_each_rank_event(mpi::Rank rank,
                           const EventVisitor& visit) const override;
  [[nodiscard]] std::optional<std::size_t> find_marker(
      mpi::Rank rank, std::uint64_t marker) const override;
  [[nodiscard]] std::optional<std::size_t> last_event_at_or_before(
      mpi::Rank rank, support::TimeNs t) const override;
  [[nodiscard]] std::size_t segment_count() const override;
  [[nodiscard]] std::pair<std::size_t, std::size_t> segment_range(
      std::size_t seg) const override;
  void for_each_in_segment(std::size_t seg,
                           const EventVisitor& visit) const override;

  /// Zero-copy views for the `Trace::events()` / `rank_events()`
  /// compatibility surface.
  [[nodiscard]] const std::vector<Event>& events_vector() const {
    return events_;
  }
  [[nodiscard]] const std::vector<std::size_t>& rank_index(
      mpi::Rank rank) const;

 private:
  int num_ranks_ = 0;
  std::vector<Event> events_;
  std::vector<std::vector<std::size_t>> by_rank_;
  std::shared_ptr<const ConstructRegistry> constructs_;
  support::TimeNs t_min_ = 0;
  support::TimeNs t_max_ = 0;
};

/// Residency counters for the segmented store's LRU cache.  `loads`
/// counts segment reads from disk, `hits` cache hits, `evictions`
/// segments dropped; `resident_segments`/`resident_bytes` describe the
/// cache right now.
struct SegmentCacheStats {
  std::uint64_t loads = 0;
  std::uint64_t hits = 0;
  std::uint64_t evictions = 0;
  std::uint64_t prefetches = 0;  ///< async segment loads issued
  std::size_t resident_segments = 0;
  std::size_t resident_bytes = 0;
  // Compressed-blob tier (v3 files only): raw segment blocks kept
  // resident so repeated decodes skip disk entirely.
  std::uint64_t blob_loads = 0;  ///< compressed blocks read from disk
  std::uint64_t blob_hits = 0;   ///< decodes served from resident blocks
  std::size_t compressed_segments = 0;  ///< blocks resident right now
  std::size_t compressed_bytes = 0;
  // Column-projection tier (v3 only): decoded column arrays kept for
  // repeated narrow queries (window scans); see `projection()`.
  std::uint64_t projection_loads = 0;  ///< projections decoded
  std::uint64_t projection_hits = 0;   ///< queries served from a resident one
  std::size_t projections = 0;         ///< projections resident right now
  std::size_t projection_bytes = 0;
};

/// Lazily loads a v2/v3 trace file through its footer directory.
///
/// Requires a display-sorted stream with monotone per-rank markers
/// (the writer records both as footer flags) — that is what turns
/// every query into a directory binary search.  `open_trace` falls
/// back to the eager reader when the flags are absent.
///
/// On a v3 file the store is three-tiered: decoded segments sit in the
/// LRU below; the *compressed* column blocks are kept in a byte-bounded
/// LRU of their own (budget: what `cache_segments` decoded segments
/// would have cost as v2 rows, so the configured memory envelope holds
/// ~4-6x more trace); and narrow queries additionally keep *column
/// projections* — the decoded u64 arrays of just the columns a query
/// touched — in a third byte-bounded LRU.  A projection of four
/// columns costs 32 bytes/event where a decoded row costs
/// `sizeof(Event)`, so repeated window queries keep several times more
/// of the trace decoded-resident than the row cache could.  Column-
/// pruned scans (`for_each_in_segment_cols`) and the v3 full sweep
/// (`for_each`) decode straight from the resident blocks into a
/// per-thread row buffer or a stack tile and never populate the
/// decoded LRU.
///
/// Thread-safe for any number of concurrent readers:
///
///   - segment IO uses `pread` on a shared descriptor (no seek state),
///     and decoding runs *outside* the cache lock, so two workers can
///     load two different segments truly in parallel;
///   - the LRU index itself sits behind one mutex, held only for
///     lookups and installs, with a `shared_future` per in-flight load
///     so concurrent misses on the same segment share one read;
///   - loaded segments are handed out as `shared_ptr`s (pinned-segment
///     refcounts): an eviction drops the cache slot, never the data a
///     reader is scanning.
///
/// With a multi-thread executor installed, the sequential cursors also
/// prefetch segment k+1 through `Executor::async` while the caller
/// consumes segment k — the read-ahead pipeline `TraceOpenOptions::
/// prefetch` controls.
class SegmentedTraceStore final : public TraceStore {
 public:
  /// Opens `path`, whose parsed footer the caller already has (from
  /// `try_read_footer`).  `num_ranks` comes from the file header;
  /// `cache_segments` bounds resident segments (minimum 1);
  /// `prefetch` enables the sequential read-ahead pipeline.
  SegmentedTraceStore(std::filesystem::path path, int num_ranks,
                      wire::Footer footer, std::size_t cache_segments,
                      bool prefetch = true);

  ~SegmentedTraceStore() override;

  [[nodiscard]] int num_ranks() const override { return num_ranks_; }
  [[nodiscard]] std::size_t size() const override {
    return static_cast<std::size_t>(footer_.event_count);
  }
  [[nodiscard]] support::TimeNs t_min() const override { return t_min_; }
  [[nodiscard]] support::TimeNs t_max() const override { return t_max_; }
  [[nodiscard]] std::shared_ptr<const ConstructRegistry> constructs()
      const override {
    return constructs_;
  }

  [[nodiscard]] Event event(std::size_t i) const override;
  void for_each(const EventVisitor& visit) const override;
  void for_each_in_window(support::TimeNs t0, support::TimeNs t1,
                          const EventVisitor& visit) const override;
  [[nodiscard]] std::size_t rank_size(mpi::Rank rank) const override;
  [[nodiscard]] std::size_t rank_event(mpi::Rank rank,
                                       std::size_t pos) const override;
  void for_each_rank_event(mpi::Rank rank,
                           const EventVisitor& visit) const override;
  [[nodiscard]] std::optional<std::size_t> find_marker(
      mpi::Rank rank, std::uint64_t marker) const override;
  [[nodiscard]] std::optional<std::size_t> last_event_at_or_before(
      mpi::Rank rank, support::TimeNs t) const override;

  [[nodiscard]] std::size_t segment_count() const override {
    return footer_.segments.size();
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> segment_range(
      std::size_t seg) const override;
  void for_each_in_segment(std::size_t seg,
                           const EventVisitor& visit) const override;
  [[nodiscard]] std::optional<SegmentZones> segment_zones(
      std::size_t seg) const override;
  void for_each_in_segment_cols(std::size_t seg, ColumnSet cols,
                                const EventVisitor& visit) const override;
  void for_each_rank_in_window(mpi::Rank rank, support::TimeNs t0,
                               support::TimeNs t1,
                               const EventVisitor& visit) const override;
  void for_each_rank_in_window_cols(mpi::Rank rank, support::TimeNs t0,
                                    support::TimeNs t1, ColumnSet cols,
                                    const EventVisitor& visit) const override;
  [[nodiscard]] SegmentCacheStats cache_stats() const;

 private:
  /// One resident segment: its events in stream order plus, per rank,
  /// the in-segment positions of that rank's events (stream order ==
  /// program order under the monotone-marker flag).
  struct LoadedSegment {
    std::vector<Event> events;
    std::vector<std::vector<std::uint32_t>> rank_positions;
  };
  using SegmentPtr = std::shared_ptr<const LoadedSegment>;
  using BlobPtr = std::shared_ptr<const std::vector<std::byte>>;

  /// Decoded logical values of a column subset of one segment, kept
  /// column-major: `col[c][k]` is row k's field c as a u64 bit pattern
  /// (signed fields two's-complement).  Only columns in `cols` are
  /// populated.
  struct ColumnProjection {
    ColumnSet cols = 0;
    std::size_t bytes = 0;
    std::array<std::vector<std::uint64_t>, wire::kNumColumnsV3> col;
  };
  using ProjectionPtr = std::shared_ptr<const ColumnProjection>;

  [[nodiscard]] SegmentPtr segment(std::size_t seg) const;
  /// pread + decode of one segment; no lock held.
  [[nodiscard]] SegmentPtr load_segment(std::size_t seg) const;
  /// The raw bytes of segment `seg`'s on-disk block, through the
  /// compressed-blob LRU (v3; also used as the read path for v2).
  [[nodiscard]] BlobPtr blob(std::size_t seg) const;
  /// The decoded segment if it is resident right now (LRU-touching),
  /// else null — lets column-pruned scans reuse full decodes for free.
  [[nodiscard]] SegmentPtr resident_segment(std::size_t seg) const;
  /// The projection of segment `seg` onto `cols` (v3 only), through
  /// the projection LRU — decoded from the compressed block on a miss.
  [[nodiscard]] ProjectionPtr projection(std::size_t seg,
                                         ColumnSet cols) const;
  /// Installs a loaded segment into the LRU (evicting), under mu_.
  void install(std::size_t seg, const SegmentPtr& loaded) const;
  /// Queues an async load of `seg` if it is absent and a parallel
  /// executor is available.
  void maybe_prefetch(std::size_t seg) const;
  [[nodiscard]] std::size_t segment_of_index(std::size_t i) const;

  std::filesystem::path path_;
  wire::Footer footer_;
  int num_ranks_ = 0;
  support::TimeNs t_min_ = 0;
  support::TimeNs t_max_ = 0;
  std::shared_ptr<const ConstructRegistry> constructs_;
  bool prefetch_enabled_ = true;

  /// Global display index of each segment's first event (size =
  /// segments + 1; last entry = event_count).
  std::vector<std::size_t> seg_first_index_;
  /// Per rank: that rank's program-order position at each segment's
  /// start (size = segments + 1; last entry = the rank's total).
  std::vector<std::vector<std::size_t>> rank_first_pos_;

  int fd_ = -1;  ///< shared pread descriptor (immutable after open)
  std::size_t cache_segments_ = 1;
  mutable std::mutex mu_;  ///< guards lru_/cache_/loading_/stats_
  mutable std::list<std::size_t> lru_;  ///< most recent first
  mutable std::vector<SegmentPtr> cache_;
  mutable std::unordered_map<std::size_t, std::shared_future<SegmentPtr>>
      loading_;
  mutable SegmentCacheStats stats_;

  /// Compressed-blob tier (v3): raw segment blocks under their own
  /// lock so a blob hit never contends with the decoded-segment LRU.
  std::size_t blob_budget_ = 0;  ///< bytes; 0 disables the tier
  mutable std::mutex blob_mu_;
  mutable std::list<std::size_t> blob_lru_;  ///< most recent first
  mutable std::vector<BlobPtr> blob_cache_;
  mutable std::size_t blob_bytes_ = 0;
  mutable std::uint64_t blob_hits_ = 0;
  mutable std::uint64_t blob_loads_ = 0;

  /// Column-projection tier (v3): decoded column arrays keyed by
  /// (segment, column set), byte-bounded by what the decoded-row LRU
  /// is allowed (`cache_segments` segments of `sizeof(Event)` rows).
  std::size_t proj_budget_ = 0;  ///< bytes; 0 disables the tier
  mutable std::mutex proj_mu_;
  mutable std::list<std::pair<std::uint64_t, ProjectionPtr>> proj_lru_;
  mutable std::unordered_map<std::uint64_t,
                             std::list<std::pair<std::uint64_t,
                                                 ProjectionPtr>>::iterator>
      proj_map_;
  mutable std::size_t proj_bytes_ = 0;
  mutable std::uint64_t proj_hits_ = 0;
  mutable std::uint64_t proj_loads_ = 0;

  /// Outstanding async prefetch tasks; the destructor waits for zero
  /// before closing fd_.
  mutable std::mutex prefetch_mu_;
  mutable std::condition_variable prefetch_cv_;
  mutable std::size_t prefetch_inflight_ = 0;
};

}  // namespace tdbg::trace
