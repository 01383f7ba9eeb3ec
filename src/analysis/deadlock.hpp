#pragma once

#include <string>
#include <vector>

#include "mpi/wait_registry.hpp"
#include "trace/trace.hpp"

/// \file deadlock.hpp
/// Deadlock explanation (paper §4.4: "the debugger is also able to
/// detect deadlocks due to circular dependency in sends or receives").
///
/// The runtime *detects* that a run is globally stuck; this
/// module *explains* it: it builds the wait-for graph from the final
/// wait snapshot, finds the circular dependency, and names the ranks
/// involved — turning Figure 5's picture ("processes 0 and 7 are
/// blocked in receives waiting for data from each other") into a
/// report.

namespace tdbg::analysis {

/// One wait-for edge: `rank` cannot proceed until `on` acts.
struct WaitEdge {
  mpi::Rank rank = 0;
  mpi::Rank on = 0;
  mpi::WaitKind kind = mpi::WaitKind::kRecv;
  mpi::Tag tag = mpi::kAnyTag;
};

/// Deadlock explanation.
struct DeadlockReport {
  bool deadlocked = false;

  /// The ranks of one dependency cycle, in wait-for order (each waits
  /// on the next, the last waits on the first).  Empty when the stall
  /// is not cyclic (e.g. a rank waiting on a finished rank).
  std::vector<mpi::Rank> cycle;

  /// Every wait-for edge among the blocked ranks.
  std::vector<WaitEdge> edges;

  /// Ranks blocked on a rank that already finished (starvation — no
  /// cycle, but equally fatal).
  std::vector<mpi::Rank> starved;

  /// Human-readable summary.
  std::string description;
};

/// Explains a wait snapshot (from `RunResult::final_waits`).
///
/// A receive with a specific source waits on that rank.  An
/// ANY_SOURCE receive waits on *every* rank that could still send —
/// it contributes an edge per candidate and participates in a cycle
/// only if all its candidates are blocked or finished.
DeadlockReport explain_deadlock(const std::vector<mpi::WaitInfo>& waits);

}  // namespace tdbg::analysis
