#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "support/clock.hpp"
#include "support/rng.hpp"
#include "trace/trace.hpp"

/// \file common.hpp
/// Shared plumbing of the end-to-end benchmark: run options, the result
/// every workload fills, sample statistics, and the benchmark's own
/// spans (recorded around each call into a tdbg layer, kept in memory,
/// written out at exit).

namespace perfbench {

using tdbg::support::TimeNs;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;          ///< record spans, report per-layer metrics
  std::filesystem::path work;  ///< scratch directory for this run
};

/// One reported number.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main().
struct Outcome {
  /// Generic end-to-end metrics (BENCHMARK.json `end_to_end`).
  std::map<std::string, Metric> e2e;
  /// Per-layer metrics (BENCHMARK.json `per_layer`); layers a workload
  /// does not call stay absent and are reported as 0.
  std::map<std::string, Metric> layer;
  /// Human-readable lines: the workload-specific names of what the user
  /// waits for on this workload, with units and sample counts.
  std::vector<std::string> report;
  /// Sample counts behind each percentile, by metric name.
  std::map<std::string, std::size_t> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False once any output differed from its expected value.
  bool correct = true;
  /// Wall time of the measured section (the traced run's overhead is
  /// computed against an untraced pass of the same section).
  double measured_wall_s = 0;
};

/// An operation check: counts an attempt, and a failed operation when
/// `ok` is false (an op that did not complete: a deadlocked run, a
/// replay that returned before parking, a refused request).  Logs
/// `what` to stderr; the run keeps going either way.
void check(Outcome& out, bool ok, const std::string& what);

/// An output check: like `check`, and a false `ok` also marks the run
/// incorrect (an op completed with a wrong answer: an artifact, payload,
/// checksum or marker set that differs from its reference).
void verify(Outcome& out, bool ok, const std::string& what);

// --- sample statistics -------------------------------------------------

/// Linear-interpolated percentile `p` in [0, 100] of `samples`.
double percentile(std::vector<double> samples, double p);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50);
}

/// Adds a report line with the median and p95 of `samples`, and records
/// the sample count under `name`.
void describe(const std::string& name, const std::vector<double>& samples,
              const std::string& unit, Outcome& out);

/// Restricts the calling thread, and every thread it starts from now
/// on, to the first CPU of its current set.  The thread-handoff
/// workloads run so: on a VM host each wakeup of a thread on an idle
/// vCPU waits for the host to schedule that vCPU, which costs up to
/// milliseconds and varies with the host's load, so on every CPU they
/// measure the host's scheduler more than the program.
void pin_to_one_cpu();

/// Seconds since an arbitrary epoch (steady clock).
double now_s();
/// CPU seconds consumed by the whole process so far.
double process_cpu_s();

// --- spans ---------------------------------------------------------------

/// The benchmark's span recorder.  Disabled (the default) every span
/// costs one relaxed load; enabled, each span appends one record under
/// a mutex.  Parents are tracked per thread; `op` groups the spans of
/// one user operation (one request, one replay cycle, one analysis).
class Tracer {
 public:
  struct Record {
    std::string name;  ///< "<layer>.<call>"
    TimeNs start_ns = 0;
    TimeNs end_ns = 0;
    std::int64_t parent = -1;  ///< index into records, or -1
    std::uint64_t op = 0;
    std::uint32_t thread = 0;
  };

  static Tracer& get();

  void set_enabled(bool on);

  /// Opens a span; returns its index (or -1 when disabled).
  std::int64_t open(const char* name, std::uint64_t op);
  void close(std::int64_t index);

  /// Self time per layer (span time minus the time its child spans
  /// cover), in seconds, over every record so far.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  [[nodiscard]] std::size_t size() const;

  /// Writes every record as Chrome trace-event JSON.
  void write(const std::filesystem::path& path) const;

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_thread_{0};
  mutable std::mutex mu_;
  std::vector<Record> records_;  ///< guarded by mu_
};

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t op = 0)
      : index_(Tracer::get().open(name, op)) {}
  ~Span() { Tracer::get().close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_;
};

// --- inputs ----------------------------------------------------------------

/// A seeded synthetic history with the shape of a message-passing run:
/// per-rank compute events, every send paired with its receive on the
/// (src, dst) channel, and `wildcards` wildcard receives for the race
/// detector.
tdbg::trace::Trace synthetic_trace(std::uint64_t seed, std::size_t events,
                                   int ranks, std::size_t wildcards);

/// The `i`-th time window of a browsing session over [t_min, t_max]:
/// widths cycle through fixed shares of the span (so every seed asks
/// for the same amount of work), positions are drawn from `rng`.
struct TimeWindow {
  TimeNs t0 = 0;
  TimeNs t1 = 0;
};
TimeWindow seeded_window(tdbg::support::SplitMix64& rng, TimeNs t_min, TimeNs t_max,
                         std::size_t i);

// --- workloads -------------------------------------------------------------

Outcome run_postmortem(const Options& options);
Outcome run_debug(const Options& options);
Outcome run_serve(const Options& options);

}  // namespace perfbench
