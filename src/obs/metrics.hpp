#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/clock.hpp"

/// \file metrics.hpp
/// Runtime metrics for the debugger and the mini-MPI runtime — the
/// self-observation layer the paper's monitor implies but never builds
/// ("the monitor ... can be toggled on and off to control trace size",
/// §2-3): the debugger must know what observation costs, how many
/// messages/bytes flowed, and how long its own machinery (flush,
/// replay, analysis) took.
///
/// Design constraints, in order:
///
///  1. The hot path of a *disabled* instrument is a single relaxed
///     atomic load (asserted by `bench/abl_metrics_cost`).
///  2. Instruments are thread-safe across ranks with no shared cache
///     lines: every instrument keeps one cache-line-padded slot per
///     rank, so concurrent ranks never contend.
///  3. With `TDBG_METRICS=OFF` (CMake option) the layer compiles out
///     to no-ops — `if constexpr` on `kMetricsEnabled` removes every
///     update before codegen.
///
/// Naming convention: `family.detail[_unit]`, where the family is the
/// taxonomy DESIGN.md describes — `mpi` (runtime), `collector`
/// (trace collection), `replay` (record/replay),
/// `analysis` (graph builds and detectors), `bench` (harness).

namespace tdbg::obs {

#if !defined(TDBG_METRICS) || TDBG_METRICS
inline constexpr bool kMetricsEnabled = true;
#else
inline constexpr bool kMetricsEnabled = false;
#endif

/// Per-instrument rank slots.  Slot 0 collects updates from outside a
/// rank (driver thread, tools); ranks map to slots 1..kRankSlots-1,
/// with ranks beyond the capacity folded modulo (totals stay exact,
/// only per-rank attribution aliases).
inline constexpr int kRankSlots = 33;

/// The slot a rank's updates land in.
constexpr std::size_t slot_of(int rank) {
  return rank < 0 ? 0
                  : 1 + static_cast<std::size_t>(rank) %
                          static_cast<std::size_t>(kRankSlots - 1);
}

/// The rank a slot reports as (slot 0 → -1, "no rank").
constexpr int rank_of_slot(std::size_t slot) {
  return slot == 0 ? -1 : static_cast<int>(slot) - 1;
}

/// What a metric's values measure (selects formatting).
enum class Unit : std::uint8_t { kCount, kNanoseconds, kBytes };

/// Instrument kinds (drives snapshot diff semantics: counters and
/// histograms subtract, gauges keep the newer value).
enum class InstrumentKind : std::uint8_t { kCounter, kGauge, kHistogram };

std::string_view unit_name(Unit unit);
std::string_view instrument_kind_name(InstrumentKind kind);

namespace detail {

/// One cache-line-padded atomic cell, so per-rank updates never share
/// a line (false sharing would put rank-to-rank contention back into
/// the hot path the padding exists to keep flat).
struct alignas(64) PaddedCell {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace detail

class MetricsRegistry;

/// Monotonic per-rank counter.  `add` is wait-free: one relaxed load
/// of the registry's enable flag plus one relaxed fetch_add on this
/// rank's private cell.
class Counter {
 public:
  void add(int rank, std::uint64_t delta = 1) {
    if constexpr (!kMetricsEnabled) {
      (void)rank;
      (void)delta;
      return;
    } else {
      if (!enabled_->load(std::memory_order_relaxed)) return;
      cells_[slot_of(rank)].value.fetch_add(delta, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::uint64_t value(int rank) const {
    return cells_[slot_of(rank)].value.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const auto& c : cells_) sum += c.value.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  const std::atomic<bool>* enabled_;
  std::array<detail::PaddedCell, kRankSlots> cells_;
};

/// Per-rank gauge: last-set value, plus a monotonic-max variant for
/// high-watermarks.
class Gauge {
 public:
  void set(int rank, std::uint64_t value) {
    if constexpr (!kMetricsEnabled) {
      (void)rank;
      (void)value;
      return;
    } else {
      if (!enabled_->load(std::memory_order_relaxed)) return;
      cells_[slot_of(rank)].value.store(value, std::memory_order_relaxed);
    }
  }

  /// Raises the gauge to `value` if it is higher (high-watermark).
  void record_max(int rank, std::uint64_t value) {
    if constexpr (!kMetricsEnabled) {
      (void)rank;
      (void)value;
      return;
    } else {
      if (!enabled_->load(std::memory_order_relaxed)) return;
      auto& cell = cells_[slot_of(rank)].value;
      std::uint64_t seen = cell.load(std::memory_order_relaxed);
      while (seen < value &&
             !cell.compare_exchange_weak(seen, value,
                                         std::memory_order_relaxed)) {
      }
    }
  }

  [[nodiscard]] std::uint64_t value(int rank) const {
    return cells_[slot_of(rank)].value.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t max() const {
    std::uint64_t best = 0;
    for (const auto& c : cells_) {
      best = std::max(best, c.value.load(std::memory_order_relaxed));
    }
    return best;
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  const std::atomic<bool>* enabled_;
  std::array<detail::PaddedCell, kRankSlots> cells_;
};

/// Fixed-bucket log-scale histogram for latencies and sizes: bucket k
/// counts values whose bit width is k (i.e. [2^(k-1), 2^k)), so 64
/// buckets cover the whole uint64 range with no configuration and a
/// branch-free index computation.  Per-rank slots are cache-line
/// padded like the other instruments.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(int rank, std::uint64_t value) {
    if constexpr (!kMetricsEnabled) {
      (void)rank;
      (void)value;
      return;
    } else {
      if (!enabled_->load(std::memory_order_relaxed)) return;
      auto& slot = slots_[slot_of(rank)];
      slot.buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
      slot.count.fetch_add(1, std::memory_order_relaxed);
      slot.sum.fetch_add(value, std::memory_order_relaxed);
      std::uint64_t seen = slot.max.load(std::memory_order_relaxed);
      while (seen < value &&
             !slot.max.compare_exchange_weak(seen, value,
                                             std::memory_order_relaxed)) {
      }
    }
  }

  /// True when updates would currently be kept — lets callers skip
  /// expensive value acquisition (e.g. clock reads) when the registry
  /// is disabled.  A single relaxed load.
  [[nodiscard]] bool hot() const {
    if constexpr (!kMetricsEnabled) {
      return false;
    } else {
      return enabled_->load(std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::uint64_t count(int rank) const {
    return slots_[slot_of(rank)].count.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum(int rank) const {
    return slots_[slot_of(rank)].sum.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t total_count() const;
  [[nodiscard]] std::uint64_t total_sum() const;
  [[nodiscard]] std::uint64_t total_max() const;

  /// Bucket index of a value: its bit width (0 for 0).
  static constexpr std::size_t bucket_of(std::uint64_t value) {
    std::size_t width = 0;
    while (value != 0) {
      ++width;
      value >>= 1;
    }
    // A 64-bit value's width can be 64; the top bucket absorbs it.
    return width < kBuckets ? width : kBuckets - 1;
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  struct alignas(64) Slot {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };

  const std::atomic<bool>* enabled_;
  std::array<Slot, kRankSlots> slots_;
};

/// RAII wall-clock timer recording its lifetime into a histogram.
/// When the target histogram is cold (registry disabled or metrics
/// compiled out) the clock is never read.
class ScopedTimer {
 public:
  ScopedTimer(Histogram& hist, int rank)
      : hist_(&hist), rank_(rank),
        start_(hist.hot() ? support::now_ns() : kCold) {}

  ~ScopedTimer() { stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Records the elapsed time (once) and returns it; 0 when cold.
  support::TimeNs stop() {
    if (start_ == kCold) return 0;
    const auto elapsed = support::now_ns() - start_;
    hist_->record(rank_, static_cast<std::uint64_t>(elapsed > 0 ? elapsed : 0));
    start_ = kCold;
    return elapsed;
  }

 private:
  static constexpr support::TimeNs kCold = -1;

  Histogram* hist_;
  int rank_;
  support::TimeNs start_;
};

/// Point-in-time copy of one instrument's state.
struct MetricSnap {
  std::string name;
  InstrumentKind kind = InstrumentKind::kCounter;
  Unit unit = Unit::kCount;
  /// Counter/gauge: per-slot values.  Histogram: per-slot counts.
  std::array<std::uint64_t, kRankSlots> per_rank{};
  /// Histogram extras (totals across slots; zero otherwise).
  std::uint64_t hist_sum = 0;
  std::uint64_t hist_max = 0;
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};

  /// Sum over slots (for histograms: total sample count).
  [[nodiscard]] std::uint64_t total() const;
  /// The family prefix of the name ("mpi.calls.send" → "mpi").
  [[nodiscard]] std::string_view family() const;

  friend bool operator==(const MetricSnap&, const MetricSnap&) = default;
};

/// A diffable, renderable copy of a registry's instruments.
struct Snapshot {
  support::TimeNs taken_ns = 0;
  std::vector<MetricSnap> metrics;

  /// This snapshot minus `earlier`: counters and histograms subtract
  /// (clamped at zero so a reset between snapshots cannot produce
  /// wrap-around garbage), gauges keep this snapshot's value.  Metrics
  /// absent from `earlier` pass through unchanged.
  [[nodiscard]] Snapshot diff(const Snapshot& earlier) const;

  /// The named metric, or nullptr.
  [[nodiscard]] const MetricSnap* find(std::string_view name) const;

  /// Human-readable report, grouped by family.  With `rank`, per-rank
  /// columns show only that rank; otherwise every active rank.  With
  /// `family`, only that family is rendered.
  [[nodiscard]] std::string to_text(
      std::optional<int> rank = std::nullopt,
      std::optional<std::string_view> family = std::nullopt) const;

  /// Machine-readable JSON (round-trips through `from_json`).
  [[nodiscard]] std::string to_json() const;

  /// Parses `to_json` output; nullopt on malformed input.
  static std::optional<Snapshot> from_json(std::string_view json);
};

/// Accumulates snapshots into a time series: one column per metric
/// total, one row per snapshot, rendered as CSV by `str()`.  The
/// column set grows on the fly — a metric first seen on a later
/// snapshot gets a new column and earlier rows are back-filled with 0
/// (metrics used to be silently dropped once the first snapshot froze
/// the header; the telemetry heartbeat registers gauges lazily, so
/// late columns are now the common case).
class MetricsSeries {
 public:
  void add(const Snapshot& snapshot);
  [[nodiscard]] std::string str() const;
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t columns() const { return columns_.size(); }

 private:
  struct Row {
    support::TimeNs t_ns = 0;
    /// Totals aligned to `columns_`; shorter than `columns_` when
    /// columns appeared after this row (rendered as 0).
    std::vector<std::uint64_t> values;
  };

  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

/// Historical name, kept for existing callers.
using TimeSeriesCsv = MetricsSeries;

/// Owns named instruments.  Creation/lookup takes a mutex and interns
/// by name (callers cache the returned reference); the instruments
/// themselves are lock-free and stable in memory for the registry's
/// lifetime.  `set_enabled(false)` turns every instrument's update
/// into the single-relaxed-load early-out.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in subsystem reports to.
  static MetricsRegistry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, Unit unit = Unit::kNanoseconds);

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Zeroes every instrument (instrument identities stay valid).
  void reset();

  [[nodiscard]] Snapshot snapshot() const;

  [[nodiscard]] std::size_t instrument_count() const;

 private:
  struct Entry {
    std::string name;
    InstrumentKind kind;
    Unit unit;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& intern(std::string_view name, InstrumentKind kind, Unit unit);

  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace tdbg::obs
