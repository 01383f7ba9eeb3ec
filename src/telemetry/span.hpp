#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "support/clock.hpp"
#include "telemetry/log.hpp"

/// \file span.hpp
/// Span-based self-profiling: a `Span` is an RAII begin/end pair over
/// a named phase of the *debugger's own* machinery — record, replay,
/// analysis, fault injection, and the mini-MPI slow paths
/// (match wait, park, trace flush).  Completed spans land in a global
/// bounded collector and export to Chrome trace-event JSON
/// (`chrome_trace.hpp`), so a whole session opens in
/// chrome://tracing / Perfetto on a synthetic "tdbg" track next to the
/// application's message events.
///
/// Spans complement `obs::ScopedTimer`: the timer folds durations into
/// a histogram (cheap, aggregated); a span keeps the individual
/// begin/end pair (plottable).  Both share the cold-path contract —
/// when the collector is disabled, constructing a span is one relaxed
/// load and no clock read.

namespace tdbg::telemetry {

/// One completed span.  Times are run-relative (`run_time_ns`
/// display time), like trace events.
struct SpanRecord {
  std::uint32_t name = 0;  ///< interned site id (`site_name` decodes)
  int rank = -1;           ///< thread rank at begin; -1 = driver/util
  support::TimeNs t_start = 0;
  support::TimeNs t_end = 0;
};

/// Bounded global collector of completed spans.  Writers claim slots
/// with one fetch_add and never block; when full, further spans are
/// counted as dropped rather than overwriting (a self-profile wants
/// the session's *shape* from the start, unlike the flight recorder's
/// tail window).
class SpanCollector {
 public:
  explicit SpanCollector(std::size_t capacity = kDefaultCapacity);

  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  /// The process-wide collector `Span` reports to.
  static SpanCollector& global();

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Records one completed span (begin/end already measured).
  void add(std::uint32_t name, int rank, support::TimeNs t_start,
           support::TimeNs t_end);

  /// Copy of every completed span so far, in completion order.  Safe
  /// against concurrent writers (unpublished slots are skipped).
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  /// Spans rejected because the collector was full.
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Forgets every span.  Callers must ensure no spans are completing
  /// concurrently (the recorder resets between runs, while the world
  /// is quiescent).
  void reset();

  static constexpr std::size_t kDefaultCapacity = 1 << 14;

 private:
  /// Words per slot: stamp + packed name/rank + t_start + t_end.
  static constexpr std::size_t kSlotWords = 4;

  std::size_t capacity_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
};

/// RAII span over the enclosing scope.  Construction with the
/// collector disabled reads no clock and records nothing.
class Span {
 public:
  /// Interns `name` on first use per call path (the lookup takes the
  /// site-registry mutex — fine for phase-granularity sites; hot call
  /// sites should cache `intern_site` in a static and use the id
  /// overload).
  explicit Span(std::string_view name)
      : Span(SpanCollector::global().enabled() ? intern_site(name) : 0u) {}

  /// Id overload: no interning, one relaxed load when disabled.
  explicit Span(std::uint32_t name_id) {
    if (!SpanCollector::global().enabled()) return;
    name_ = name_id;
    // Absolute start: a span can straddle a run-epoch reset (e.g.
    // debugger.record starts before mpi::run re-arms the epoch), so
    // the run-relative pair is derived at completion from the
    // duration instead of captured here.
    start_abs_ = support::now_ns();
    active_ = true;
  }

  ~Span() {
    if (!active_) return;
    const support::TimeNs end_run = support::run_time_ns();
    const support::TimeNs dur = support::now_ns() - start_abs_;
    support::TimeNs start_run = end_run - dur;
    if (start_run < 0) start_run = 0;  // began before this run's epoch
    SpanCollector::global().add(name_, thread_rank(), start_run, end_run);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  std::uint32_t name_ = 0;
  support::TimeNs start_abs_ = 0;
};

}  // namespace tdbg::telemetry
