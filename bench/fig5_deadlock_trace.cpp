// Figure 5 — "Process 0 (at the bottom) and process 7 (at the top) are
// blocked in receives waiting for data from each other."
//
// Regenerates the failure: runs the buggy Strassen, lets the runtime
// unwind the deadlock, verifies the 0<->7 circular wait, and renders
// the trace up to the hang.

#include <cstdio>
#include <fstream>

#include "analysis/deadlock.hpp"
#include "apps/strassen.hpp"
#include "bench_util.hpp"
#include "replay/record.hpp"
#include "viz/timeline.hpp"

int main() {
  using namespace tdbg;
  bench::header("Figure 5: buggy Strassen — ranks 0 and 7 deadlocked");

  apps::strassen::Options opts;
  opts.n = 64;
  opts.cutoff = 16;
  opts.buggy = true;
  const auto rec = replay::record(
      8, [opts](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });

  std::printf("run outcome      : %s\n",
              rec.result.deadlocked ? "deadlock detected" : "UNEXPECTED");
  std::printf("abort detail     : %s\n", rec.result.abort_detail.c_str());

  const auto report = analysis::explain_deadlock(rec.result.final_waits);
  std::printf("analysis         : %s\n", report.description.c_str());

  bool zero_waits_on_seven = false, seven_waits_on_zero = false;
  for (const auto& w : rec.result.final_waits) {
    if (w.rank == 0 && w.kind == mpi::WaitKind::kRecv && w.peer == 7) {
      zero_waits_on_seven = true;
    }
    if (w.rank == 7 && w.kind == mpi::WaitKind::kRecv && w.peer == 0) {
      seven_waits_on_zero = true;
    }
  }
  std::printf("0 blocked on 7   : %s\n", zero_waits_on_seven ? "yes" : "NO");
  std::printf("7 blocked on 0   : %s\n", seven_waits_on_zero ? "yes" : "NO");

  viz::TimeSpaceDiagram diagram(rec.trace);
  std::ofstream("fig5_deadlock_trace.svg") << diagram.to_svg();
  std::printf("svg written      : fig5_deadlock_trace.svg\n");
  std::printf("\n%s", diagram.to_ascii(100).c_str());
  bench::note("paper: processes 0 and 7 fail to make progress, blocked in "
              "receives on each other.");
  return rec.result.deadlocked && zero_waits_on_seven && seven_waits_on_zero
             ? 0
             : 1;
}
