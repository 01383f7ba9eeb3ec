#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/hooks.hpp"
#include "mpi/match_controller.hpp"
#include "mpi/wait_registry.hpp"
#include "mpi/world.hpp"

/// \file runtime.hpp
/// Entry point of the message-passing substrate: spawn N single-
/// threaded ranks, run a body on each, join, and report what happened
/// (including deadlocks, which are unwound so a buggy target program
/// terminates instead of hanging the debugger).  Deadlock is decided
/// exactly, with no timer: every rank's state lives in the world's
/// `WaitRegistry`, a rank is marked running by whoever wakes it before
/// it is woken, and the wait or finish that leaves every rank idle
/// with some blocked and none parked declares the deadlock at once.

namespace tdbg::mpi {

/// Per-run configuration.
struct RunOptions {
  /// Profiling hooks — the "instrumented MPI library" of paper §2.3.
  ProfilingHooks* hooks = nullptr;

  /// Match controller — installed by the replay engine (§4.2).
  MatchController* controller = nullptr;

  /// Fault injector — installed by the `tdbg::fault` engine to perturb
  /// user-level message traffic at the delivery and receive-post
  /// seams.  Null (the default) costs one pointer test per send/recv.
  FaultInjector* fault_injector = nullptr;

  /// Called once, before ranks start, with shared ownership of the
  /// run's world.  The replay engine uses this to park ranks at
  /// breakpoints through the world's wait registry and to wait for
  /// quiescence there; holding the pointer keeps introspection safe
  /// after the run ends.
  std::function<void(std::shared_ptr<World>)> on_world_ready;
};

/// One rank's uncaught exception.
struct RankFailure {
  Rank rank = 0;
  std::string what;
};

/// Outcome of a run.
struct RunResult {
  /// Every rank body returned normally.
  bool completed = false;

  /// The run deadlocked: every rank idle, some blocked, none parked.
  bool deadlocked = false;

  /// Rank bodies that threw (excluding `Aborted` unwinds).
  std::vector<RankFailure> failures;

  /// Wait snapshot at abort time; empty if the run completed.  For a
  /// deadlock this is the "who is blocked on whom" picture of Fig. 5.
  std::vector<WaitInfo> final_waits;

  /// Human-readable abort reason, empty if none.
  std::string abort_detail;
};

/// The rank body: runs once per rank, on its own thread.
using RankBody = std::function<void(Comm&)>;

/// Runs `body` on `num_ranks` ranks and blocks until the run ends.
///
/// Hooks observe `on_rank_start`/`on_rank_finish` on the rank's own
/// thread, so thread-local instrumentation state can be set up there.
RunResult run(int num_ranks, const RankBody& body, const RunOptions& options = {});

/// The calling thread's rank, or -1 outside a rank body.  Used by the
/// instrumentation layer (`UserMonitor`) to find its per-rank context
/// without threading a handle through application code.
Rank this_rank();

}  // namespace tdbg::mpi
