#include "fault/hang.hpp"

#include <sstream>

#include "telemetry/log.hpp"
#include "trace/trace_io.hpp"

namespace tdbg::fault {

namespace {

std::string_view wait_kind_name(mpi::WaitKind kind) {
  switch (kind) {
    case mpi::WaitKind::kNone: return "running";
    case mpi::WaitKind::kRecv: return "blocked in recv";
    case mpi::WaitKind::kSsend: return "blocked in ssend";
    case mpi::WaitKind::kParked: return "parked at a breakpoint";
    case mpi::WaitKind::kFinished: return "finished";
  }
  return "?";
}

}  // namespace

HangDiagnosis diagnose_hang(const mpi::RunResult& result,
                            const trace::Trace& trace,
                            const std::filesystem::path& flush_to) {
  HangDiagnosis diag;
  diag.hung = !result.completed;
  diag.deadlocked = result.deadlocked;
  diag.failures = result.failures;
  diag.abort_detail = result.abort_detail;

  const int num_ranks = trace.num_ranks();
  diag.ranks.resize(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    auto& rs = diag.ranks[static_cast<std::size_t>(r)];
    rs.rank = r;
    rs.wait = mpi::WaitInfo{r, mpi::WaitKind::kNone, mpi::kAnySource,
                            mpi::kAnyTag};
    trace.for_each_rank_event(r, [&](std::size_t, const trace::Event& e) {
      rs.last_event = e;  // per-rank stream order: last visit wins
      rs.has_last_event = true;
    });
  }
  for (const auto& w : result.final_waits) {
    if (w.rank < 0 || w.rank >= num_ranks) continue;
    diag.ranks[static_cast<std::size_t>(w.rank)].wait = w;
    if (w.kind == mpi::WaitKind::kRecv || w.kind == mpi::WaitKind::kSsend) {
      diag.blocked.push_back(w);
    }
  }

  if (!flush_to.empty()) {
    trace::write_trace(flush_to, trace);
    diag.partial_trace = flush_to;
  }

  // A hung run auto-dumps the flight recorder: the last records name
  // the injected hold ("fault.hold"), any stalled-rank warnings, and
  // the runtime's deadlock verdict — the chain of evidence in one
  // place.
  if (diag.hung) {
    diag.flight_log =
        telemetry::FlightRecorder::global().dump_text(/*max_records=*/64);
  }
  return diag;
}

std::string HangDiagnosis::describe() const {
  std::ostringstream os;
  if (!hung) {
    os << "run completed normally\n";
    return os.str();
  }
  os << "run did not complete: "
     << (deadlocked ? "deadlocked" : "aborted") << "\n";
  if (!abort_detail.empty()) os << "  " << abort_detail << "\n";
  for (const auto& f : failures) {
    os << "  rank " << f.rank << " failed: " << f.what << "\n";
  }
  for (const auto& rs : ranks) {
    os << "  rank " << rs.rank << ": " << wait_kind_name(rs.wait.kind);
    if (rs.wait.kind == mpi::WaitKind::kRecv ||
        rs.wait.kind == mpi::WaitKind::kSsend) {
      os << " <- ";
      if (rs.wait.peer == mpi::kAnySource) {
        os << "any source";
      } else {
        os << "rank " << rs.wait.peer;
      }
      if (rs.wait.tag != mpi::kAnyTag) os << " tag " << rs.wait.tag;
    }
    if (rs.has_last_event) {
      os << "; last event: " << trace::event_kind_name(rs.last_event.kind)
         << " marker " << rs.last_event.marker;
      if (rs.last_event.is_message()) {
        os << " peer " << rs.last_event.peer << " tag " << rs.last_event.tag;
      }
    }
    os << "\n";
  }
  if (!partial_trace.empty()) {
    os << "  partial trace flushed to " << partial_trace.string() << "\n";
  }
  if (!flight_log.empty()) {
    os << "  flight recorder (most recent last):\n";
    std::istringstream lines(flight_log);
    for (std::string line; std::getline(lines, line);) {
      os << "    " << line << "\n";
    }
  }
  return os.str();
}

}  // namespace tdbg::fault
