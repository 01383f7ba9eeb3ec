#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "support/clock.hpp"

/// \file health.hpp
/// The live health surface: a heartbeat thread samples every rank's
/// progress — marker counter, mailbox depth, trace backlog, wait
/// state — through a caller-supplied probe, keeps the latest per-rank
/// picture for the debugger's `health` command, accumulates the
/// samples into an `obs::MetricsSeries`, and flags ranks that stop
/// making progress while the run is not (yet) deadlocked (a stalled
/// rank gets a WARN in the flight recorder the moment it crosses the
/// threshold, so the black box explains the hang).
///
/// The probe is a `std::function`, so this layer knows nothing about
/// the runtime: `replay::record` builds the probe from the live
/// world + session + collector and tears the monitor down before
/// they die; afterwards the cached snapshot stays readable.

namespace tdbg::telemetry {

/// One rank's sampled state.
struct HealthSample {
  enum class State : std::uint8_t {
    kRunning,
    kBlocked,   ///< in a recv/ssend wait
    kFinished,
    kUnknown,
  };

  State state = State::kUnknown;
  std::uint64_t marker = 0;       ///< execution-marker counter
  std::uint64_t mailbox_depth = 0;
  std::uint64_t trace_backlog = 0;  ///< unflushed collector records
  std::string detail;               ///< e.g. "recv <- rank 2 tag 5"
};

std::string_view health_state_name(HealthSample::State state);

/// Heartbeat configuration.
struct HealthOptions {
  std::chrono::milliseconds interval{25};
  /// A blocked rank whose marker has not moved for this long is
  /// flagged as stalled (the runtime's deadlock verdict needs every
  /// rank idle; a stall needs only this one).
  std::chrono::milliseconds stall_after{200};
  /// Rows kept in the metrics series (bounds memory on long runs).
  std::size_t max_series_rows = 4096;
};

/// Heartbeat sampler over `num_ranks` ranks.
class HealthMonitor {
 public:
  using Probe = std::function<HealthSample(int rank)>;

  HealthMonitor(int num_ranks, Probe probe, HealthOptions options = {});

  /// Joins the heartbeat thread.
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Starts the heartbeat.  No-op if already running.
  void start();

  /// Stops and joins the heartbeat; the last snapshot stays readable.
  /// After `stop`, the probe is never called again.
  void stop();

  /// Latest per-rank picture.
  struct RankHealth {
    HealthSample sample;
    support::TimeNs last_progress_ns = 0;  ///< when the marker last moved
    bool stalled = false;
  };

  [[nodiscard]] std::vector<RankHealth> snapshot() const;

  /// The accumulated heartbeat series (one row per tick).
  [[nodiscard]] const obs::MetricsSeries& series() const { return series_; }

  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

  /// The `health` command's text: per-rank state, last progress age,
  /// queue depths, stall flags.
  [[nodiscard]] std::string report() const;

 private:
  void loop();
  void sample_once();

  int num_ranks_;
  Probe probe_;
  HealthOptions options_;

  mutable std::mutex mu_;  ///< guards states_, series_, ticks_
  std::vector<RankHealth> states_;
  obs::MetricsSeries series_;
  std::uint64_t ticks_ = 0;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_requested_ = false;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace tdbg::telemetry
