#include "replay/replay.hpp"

#include <future>

#include "support/error.hpp"

namespace tdbg::replay {

ReplaySession::ReplaySession(int num_ranks, mpi::RankBody body, MatchLog log,
                             instr::SessionOptions session_options,
                             bool collect_trace, bool record_matches)
    : num_ranks_(num_ranks), body_(std::move(body)) {
  TDBG_CHECK(num_ranks > 0, "replay needs at least one rank");
  if (collect_trace) {
    collector_ = std::make_unique<trace::TraceCollector>(
        num_ranks, instr::global_constructs());
  }
  session_ = std::make_unique<instr::Session>(num_ranks, collector_.get(),
                                              session_options);
  controller_ = std::make_unique<ReplayController>(std::move(log));
  control_ = std::make_unique<BreakpointControl>(num_ranks);
  session_->set_control(control_.get());
  if (record_matches) {
    recorder_ = std::make_unique<MatchRecorder>(num_ranks);
  }
  metrics_hooks_ = std::make_unique<obs::MetricsHooks>();
  hooks_ = std::make_unique<mpi::HookFanout>();
  // Metrics first so its begin/end windows bracket every other hook's
  // work (HookFanout runs end-side children in reverse order).
  hooks_->add(metrics_hooks_.get());
  hooks_->add(session_.get());
  hooks_->add(recorder_.get());
}

ReplaySession::~ReplaySession() {
  if (started_ && !finished_) {
    for (mpi::Rank r = 0; r < num_ranks_; ++r) control_->disarm(r);
    control_->resume_all();
    if (runner_.joinable()) runner_.join();
  }
}

void ReplaySession::start_if_needed() {
  if (started_) return;
  started_ = true;
  started_ns_ = support::now_ns();
  std::promise<std::shared_ptr<const mpi::World>> world_promise;
  auto world_future = world_promise.get_future();
  runner_ = std::thread([this, &world_promise] {
    mpi::RunOptions options;
    options.hooks = hooks_.get();
    options.controller = controller_.get();
    options.on_world_ready = [this, &world_promise](auto world) {
      control_->attach(&world->shared().registry);
      world_promise.set_value(std::move(world));
    };
    result_ = mpi::run(num_ranks_, body_, options);
  });
  world_ = world_future.get();
}

std::vector<StopInfo> ReplaySession::wait_quiescent() {
  std::vector<StopInfo> stops;
  for (const auto& w : world_->shared().registry.await_quiescent()) {
    if (auto stop = control_->stopped_at(w.rank)) stops.push_back(*stop);
  }
  return stops;
}

std::vector<StopInfo> ReplaySession::run_to(const Stopline& stopline) {
  TDBG_CHECK(!finished_, "replay already finished");
  TDBG_CHECK(stopline.thresholds.size() == static_cast<std::size_t>(num_ranks_),
             "stopline rank count mismatch");
  for (mpi::Rank r = 0; r < num_ranks_; ++r) {
    const auto& t = stopline.thresholds[static_cast<std::size_t>(r)];
    if (t) {
      control_->arm_marker(r, *t);
    } else {
      control_->disarm(r);
    }
  }
  if (started_) {
    control_->resume_all();
  } else {
    start_if_needed();
  }
  return wait_quiescent();
}

std::optional<StopInfo> ReplaySession::wait_rank_or_blocked(mpi::Rank rank) {
  if (world_->shared().registry.await_settled(rank) != mpi::WaitKind::kParked) {
    return std::nullopt;  // finished, or blocked on a parked rank
  }
  return control_->stopped_at(rank);
}

std::optional<StopInfo> ReplaySession::step(mpi::Rank rank) {
  TDBG_CHECK(started_ && !finished_, "step needs a stopped replay");
  control_->arm_step(rank);
  control_->resume(rank);
  return wait_rank_or_blocked(rank);
}

std::optional<StopInfo> ReplaySession::step_to_depth(mpi::Rank rank,
                                                     int max_depth) {
  TDBG_CHECK(started_ && !finished_, "step needs a stopped replay");
  control_->arm_step_depth(rank, max_depth);
  control_->resume(rank);
  return wait_rank_or_blocked(rank);
}

std::optional<StopInfo> ReplaySession::continue_rank(mpi::Rank rank) {
  TDBG_CHECK(started_ && !finished_, "continue needs a stopped replay");
  // Clear a consumed stopline marker (">=" would re-trigger instantly)
  // but leave watches/message/construct breakpoints armed.
  control_->arm_marker(rank, instr::kNoThreshold);
  control_->resume(rank);
  return wait_rank_or_blocked(rank);
}

mpi::RunResult ReplaySession::finish() {
  TDBG_CHECK(!finished_, "replay already finished");
  start_if_needed();
  for (mpi::Rank r = 0; r < num_ranks_; ++r) control_->disarm(r);
  control_->resume_all();
  runner_.join();
  finished_ = true;
  if constexpr (obs::kMetricsEnabled) {
    // Wall time from first start to completion — interactive pauses
    // included, which is exactly the "replay overhead vs. record"
    // number the paper's Table 1 discussion cares about.
    obs::MetricsRegistry::global()
        .histogram("replay.replay_ns", obs::Unit::kNanoseconds)
        .record(-1, static_cast<std::uint64_t>(support::now_ns() -
                                               started_ns_));
  }
  return result_;
}

trace::Trace ReplaySession::trace() const {
  if (collector_ == nullptr) return {};
  return collector_->build_trace();
}

MatchLog ReplaySession::match_log() const {
  if (recorder_ == nullptr) return {};
  return recorder_->log();
}

}  // namespace tdbg::replay
