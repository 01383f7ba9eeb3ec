#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "mpi/runtime.hpp"
#include "trace/event.hpp"
#include "trace/trace.hpp"

/// \file hang.hpp
/// Graceful degradation for killed runs: when a fault (an injected
/// crash, a held message) stops a run from completing, the runtime
/// has already converted the hang into an aborted `RunResult`; this
/// turns that result plus the partial trace into a structured
/// diagnosis — which rank died or blocked where, what each rank last
/// did, and (optionally) the partial trace flushed to disk for
/// post-mortem analysis — instead of leaving the user with a silent
/// half-empty history.

namespace tdbg::fault {

/// Per-rank slice of a hang diagnosis.
struct RankLastState {
  mpi::Rank rank = 0;
  /// The rank's wait at abort time (kFinished if its body returned).
  mpi::WaitInfo wait;
  bool has_last_event = false;
  trace::Event last_event;  ///< valid when has_last_event
};

struct HangDiagnosis {
  bool hung = false;  ///< run did not complete (deadlock or failure)
  bool deadlocked = false;
  std::vector<mpi::RankFailure> failures;
  std::string abort_detail;

  /// Ranks blocked at abort time — the "blocked-on" edges (a recv wait
  /// is an edge rank → peer; kAnySource fans out to every sender).
  std::vector<mpi::WaitInfo> blocked;

  /// One entry per rank: wait state + last trace event.
  std::vector<RankLastState> ranks;

  /// Where the partial trace was flushed; empty if not requested.
  std::filesystem::path partial_trace;

  /// Tail of the flight recorder at diagnosis time — the black box's
  /// last words (injected holds, stall warnings, the deadlock verdict).
  std::string flight_log;

  [[nodiscard]] std::string describe() const;
};

/// Builds a diagnosis from a finished (possibly aborted) run and its
/// partial trace.  When `flush_to` is non-empty the trace is written
/// there (indexed v2), so the on-disk history survives the debugger.
HangDiagnosis diagnose_hang(const mpi::RunResult& result,
                            const trace::Trace& trace,
                            const std::filesystem::path& flush_to = {});

}  // namespace tdbg::fault
