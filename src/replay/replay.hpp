#pragma once

#include <memory>
#include <thread>

#include "instrument/session.hpp"
#include "mpi/runtime.hpp"
#include "obs/metrics_hooks.hpp"
#include "replay/breakpoints.hpp"
#include "replay/match_log.hpp"
#include "replay/stopline.hpp"
#include "trace/collector.hpp"

/// \file replay.hpp
/// Controlled re-execution (paper §4.1–4.2).
///
/// A `ReplaySession` re-runs a recorded program with the replay
/// controller forcing identical message matching, and a breakpoint
/// control parking each rank at the stopline's marker threshold.  The
/// driver thread can then inspect the stopped world, single-step
/// individual ranks (the Fig. 7 workflow that finds the wrong send
/// destination), move on to another stopline, or let the program run
/// to its end.

namespace tdbg::replay {

/// One controlled replay of a recorded run.
///
/// Lifecycle: construct → `run_to(stopline)` → inspect / `step` /
/// `run_to` again (markers only move forward) → `finish()`.  The
/// destructor cleans up (resumes and joins) if `finish` was not
/// called.
class ReplaySession {
 public:
  /// \param num_ranks       world size of the recorded run
  /// \param body            the target program (same binary/body as
  ///                        recorded — replay assumes determinism
  ///                        given the forced matching)
  /// \param log             the recorded match log.  An *empty* log
  ///                        (per-rank vectors empty) makes this a
  ///                        **live** session: matching is free, which
  ///                        is how breakpoints on a first execution
  ///                        work — pair with `record_matches` so the
  ///                        live run becomes replayable afterwards.
  /// \param session_options collection configuration for this replay
  /// \param collect_trace   collect a trace of the run as well
  /// \param record_matches  attach a match recorder (see `match_log`)
  ReplaySession(int num_ranks, mpi::RankBody body, MatchLog log,
                instr::SessionOptions session_options = {},
                bool collect_trace = false, bool record_matches = false);

  ~ReplaySession();

  ReplaySession(const ReplaySession&) = delete;
  ReplaySession& operator=(const ReplaySession&) = delete;

  /// Starts (or continues) execution until every rank is parked at the
  /// stopline or has finished.  Returns the stop states.
  std::vector<StopInfo> run_to(const Stopline& stopline);

  /// Single-steps `rank` to its next instrumented event and waits for
  /// it to stop there.  Returns nullopt when the rank finished or
  /// blocked in the message layer instead (it is then waiting for a
  /// message from a parked rank; resume another rank to feed it).
  std::optional<StopInfo> step(mpi::Rank rank);

  /// Steps `rank` until its call depth returns to at most `max_depth`
  /// — "step over" when given the current depth, "step out" when given
  /// depth-1.
  std::optional<StopInfo> step_to_depth(mpi::Rank rank, int max_depth);

  /// Resumes `rank` and waits for its next stop (armed watchpoint,
  /// message breakpoint, construct breakpoint, or marker) — nullopt
  /// when it finishes or durably blocks instead.
  std::optional<StopInfo> continue_rank(mpi::Rank rank);

  /// Resumes everything, disarms all breakpoints, and waits for the
  /// run to end.  Returns the run outcome.
  mpi::RunResult finish();

  /// The breakpoint control, for custom arming (function breakpoints).
  [[nodiscard]] BreakpointControl& control() { return *control_; }

  /// The instrumentation session (marker counters, monitor records).
  [[nodiscard]] instr::Session& session() { return *session_; }

  /// Trace of the replay (empty unless collect_trace was set; valid
  /// after `finish`).
  [[nodiscard]] trace::Trace trace() const;

  /// The match log recorded so far (empty unless record_matches was
  /// set).  Safe to read while ranks are stopped or after `finish`.
  [[nodiscard]] MatchLog match_log() const;

  [[nodiscard]] int num_ranks() const { return num_ranks_; }

 private:
  void start_if_needed();

  /// Waits until the world is quiescent: every rank is parked at a
  /// breakpoint, finished, or blocked in the message layer (then on a
  /// parked rank).  The wait registry makes this exact — a resumed or
  /// woken rank counts as running before it is scheduled.  Returns
  /// breakpoint stops only.
  std::vector<StopInfo> wait_quiescent();

  /// Waits for one rank to stop or finish, or for the world to go
  /// quiescent (the rank is then blocked on a parked rank).
  std::optional<StopInfo> wait_rank_or_blocked(mpi::Rank rank);

  int num_ranks_;
  mpi::RankBody body_;
  std::unique_ptr<trace::TraceCollector> collector_;
  std::unique_ptr<instr::Session> session_;
  std::unique_ptr<ReplayController> controller_;
  std::unique_ptr<MatchRecorder> recorder_;
  std::unique_ptr<BreakpointControl> control_;
  std::unique_ptr<obs::MetricsHooks> metrics_hooks_;
  std::unique_ptr<mpi::HookFanout> hooks_;

  std::thread runner_;
  std::shared_ptr<const mpi::World> world_;
  mpi::RunResult result_;
  support::TimeNs started_ns_ = 0;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace tdbg::replay
