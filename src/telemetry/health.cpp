#include "telemetry/health.hpp"

#include <sstream>

#include "telemetry/log.hpp"

namespace tdbg::telemetry {

std::string_view health_state_name(HealthSample::State state) {
  switch (state) {
    case HealthSample::State::kRunning: return "running";
    case HealthSample::State::kBlocked: return "blocked";
    case HealthSample::State::kFinished: return "finished";
    case HealthSample::State::kUnknown: return "unknown";
  }
  return "?";
}

HealthMonitor::HealthMonitor(int num_ranks, Probe probe, HealthOptions options)
    : num_ranks_(num_ranks), probe_(std::move(probe)),
      options_(options),
      states_(static_cast<std::size_t>(num_ranks)) {}

HealthMonitor::~HealthMonitor() { stop(); }

void HealthMonitor::start() {
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { loop(); });
}

void HealthMonitor::stop() {
  if (!running_) return;
  {
    std::lock_guard lk(wake_mu_);
    stop_requested_ = true;
  }
  wake_cv_.notify_all();
  thread_.join();
  running_ = false;
}

void HealthMonitor::loop() {
  std::unique_lock lk(wake_mu_);
  for (;;) {
    if (wake_cv_.wait_for(lk, options_.interval,
                          [this] { return stop_requested_; })) {
      // One final sample on the way out, so even a sub-interval run
      // leaves a picture behind for the `health` command.
      lk.unlock();
      sample_once();
      return;
    }
    lk.unlock();
    sample_once();
    lk.lock();
  }
}

void HealthMonitor::sample_once() {
  const support::TimeNs now = support::run_time_ns();
  const support::TimeNs stall_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          options_.stall_after)
          .count();

  auto& registry = obs::MetricsRegistry::global();
  auto& depth_gauge = registry.gauge("telemetry.health.mailbox_depth");
  auto& backlog_gauge = registry.gauge("telemetry.health.trace_backlog");
  auto& stalled_counter = registry.counter("telemetry.health.stall_flags");

  std::lock_guard lk(mu_);
  for (int r = 0; r < num_ranks_; ++r) {
    auto& st = states_[static_cast<std::size_t>(r)];
    HealthSample sample = probe_(r);
    const bool progressed = ticks_ == 0 || sample.marker != st.sample.marker ||
                            sample.state != st.sample.state;
    if (progressed) {
      st.last_progress_ns = now;
      st.stalled = false;
    } else if (!st.stalled && sample.state == HealthSample::State::kBlocked &&
               now - st.last_progress_ns >= stall_ns) {
      st.stalled = true;
      stalled_counter.add(r);
      // The flight recorder hears about the stall the moment it is
      // flagged — a rank can stall long before (or without) a global
      // deadlock verdict.
      TDBG_LOG(LogLevel::kWarn, "health.stalled_rank",
               static_cast<std::uint64_t>(r), sample.marker);
    }
    depth_gauge.set(r, sample.mailbox_depth);
    backlog_gauge.set(r, sample.trace_backlog);
    st.sample = std::move(sample);
  }
  ++ticks_;
  if (series_.rows() < options_.max_series_rows) {
    series_.add(registry.snapshot());
  }
}

std::vector<HealthMonitor::RankHealth> HealthMonitor::snapshot() const {
  std::lock_guard lk(mu_);
  return states_;
}

std::string HealthMonitor::report() const {
  std::lock_guard lk(mu_);
  const support::TimeNs now = support::run_time_ns();
  std::ostringstream os;
  os << "heartbeat: " << ticks_ << " tick(s) @ "
     << options_.interval.count() << "ms, " << series_.rows()
     << " series row(s)\n";
  for (int r = 0; r < num_ranks_; ++r) {
    const auto& st = states_[static_cast<std::size_t>(r)];
    os << "  rank " << r << ": " << health_state_name(st.sample.state);
    if (!st.sample.detail.empty()) os << " (" << st.sample.detail << ")";
    os << "  marker " << st.sample.marker << "  mailbox "
       << st.sample.mailbox_depth << "  backlog " << st.sample.trace_backlog;
    const auto age_ms = (now - st.last_progress_ns) / 1'000'000;
    os << "  last progress " << (age_ms < 0 ? 0 : age_ms) << "ms ago";
    if (st.stalled) os << "  STALLED";
    os << "\n";
  }
  return os.str();
}

}  // namespace tdbg::telemetry
