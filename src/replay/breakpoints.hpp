#pragma once

#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "instrument/session.hpp"
#include "mpi/wait_registry.hpp"

/// \file breakpoints.hpp
/// The control-point implementation of breakpoints: a
/// `BreakpointControl` installed on the instrumentation session blocks
/// each rank when it generates an execution marker the debugger armed
/// (the UserMonitor threshold test of paper §2.2/§4.1), and lets a
/// driver thread inspect, re-arm, and resume it.  Stopped ranks park
/// in the run's `mpi::WaitRegistry`, where the driver waits for them.

namespace tdbg::replay {

/// Where a rank is currently stopped.
struct StopInfo {
  mpi::Rank rank = 0;
  std::uint64_t marker = 0;
  trace::ConstructId construct = trace::kNoConstruct;
  trace::EventKind kind = trace::EventKind::kEnter;
  int depth = 0;
  std::string watch;  ///< non-empty when a watchpoint triggered the stop
};

/// A watchpoint probe: runs on the rank's own thread at every
/// instrumented event, returns true when the watched state changed
/// since the last call.  Must only read memory (it runs under the
/// control lock).
struct WatchProbe {
  std::string name;
  std::function<bool()> changed;
};

/// A message breakpoint: stop a rank when it is about to perform a
/// matching message operation (Ariadne-style event breakpoints, paper
/// §5).  Wildcards (`kAnySource`/`kAnyTag`) match anything; for
/// receives the *requested* endpoints are tested (the operation has
/// not matched yet when the stop fires).
struct MessageBreak {
  bool on_send = true;
  bool on_recv = true;
  mpi::Rank peer = mpi::kAnySource;
  mpi::Tag tag = mpi::kAnyTag;
};

/// Control interface that stops ranks at armed markers (and,
/// optionally, at every event — single-step mode).
///
/// Thread model: rank threads call `at_event` (from inside
/// `UserMonitor`) and park in the wait registry while stopped; one
/// driver thread arms markers, waits for stops on the registry, and
/// resumes ranks.  A stopped rank blocks *before* the marked construct
/// executes.
class BreakpointControl : public instr::ControlInterface {
 public:
  explicit BreakpointControl(int num_ranks);

  /// Binds the run's wait registry, where stopped ranks park.  Must
  /// happen before any rank can reach `at_event`.
  void attach(mpi::WaitRegistry* ledger);

  // --- called from rank threads (via the session) ----------------------
  void at_event(mpi::Rank rank, std::uint64_t marker,
                trace::ConstructId construct, trace::EventKind kind,
                int depth, bool threshold_hit,
                const instr::EventDetail& detail) override;

  // --- called from the driver thread ------------------------------------

  /// Arms a stop at `marker` on `rank` (the UserMonitor threshold).
  void arm_marker(mpi::Rank rank, std::uint64_t marker);

  /// Arms a stop at the next event of `rank` (single step).
  void arm_step(mpi::Rank rank);

  /// Arms a stop at the next event of `rank` whose call depth is <=
  /// `max_depth` (step-over / step-out).
  void arm_step_depth(mpi::Rank rank, int max_depth);

  /// Arms a stop whenever `rank` generates an event at `construct`
  /// (a function breakpoint).  Multiple constructs may be armed.
  void arm_construct(mpi::Rank rank, trace::ConstructId construct);

  /// Arms a watchpoint: `rank` stops at the first instrumented event
  /// after the probe reports a change (the software-instruction-count
  /// watchpoint organization of Mellor-Crummey & LeBlanc, which the
  /// paper's §5 cites as [11]).
  void arm_watch(mpi::Rank rank, WatchProbe probe);

  /// Arms a message breakpoint on `rank`.
  void arm_message(mpi::Rank rank, MessageBreak spec);

  /// Clears every armed condition on `rank`.
  void disarm(mpi::Rank rank);

  /// Resumes `rank` if it is stopped (armed conditions stay armed).
  void resume(mpi::Rank rank);

  /// Resumes every stopped rank.
  void resume_all();

  /// Stop state of one rank, if stopped.
  [[nodiscard]] std::optional<StopInfo> stopped_at(mpi::Rank rank) const;

 private:
  struct RankState {
    // Armed conditions:
    std::uint64_t marker = instr::kNoThreshold;
    bool step = false;
    std::optional<int> step_depth;
    std::vector<trace::ConstructId> constructs;
    std::vector<WatchProbe> watches;
    std::vector<MessageBreak> message_breaks;
    StopInfo stop;  ///< the last stop; current while the rank is parked
  };

  /// nullopt: keep running.  Otherwise stop; the value names the
  /// tripped watchpoint (empty for marker/step/construct stops).
  [[nodiscard]] std::optional<std::string> should_stop(
      RankState& s, std::uint64_t marker, trace::ConstructId construct,
      trace::EventKind kind, int depth, bool threshold_hit,
      const instr::EventDetail& detail) const;

  mutable std::mutex mu_;
  std::vector<RankState> states_;
  mpi::WaitRegistry* ledger_ = nullptr;
};

}  // namespace tdbg::replay
