// Communication supervision in practice: deadlock explanation for a
// ring of receives, and message-race detection on a self-scheduling
// task farm (the §4.4 analyses).

#include <iostream>

#include "analysis/deadlock.hpp"
#include "analysis/races.hpp"
#include "apps/taskfarm.hpp"
#include "debugger/debugger.hpp"

int main() {
  using namespace tdbg;

  std::cout << "=== deadlock: a ring of receives ===\n";
  {
    // Every rank first receives from its left neighbour: a 5-cycle.
    dbg::Debugger debugger(5, [](mpi::Comm& comm) {
      const int p = comm.size();
      const mpi::Rank left = (comm.rank() - 1 + p) % p;
      const mpi::Rank right = (comm.rank() + 1) % p;
      std::vector<std::byte> buf;
      comm.recv(buf, left, 0);
      comm.send(std::span<const std::byte>(), right, 0);
    });
    const auto& result = debugger.record();
    std::cout << "runtime: " << result.abort_detail << "\n";
    const auto report = debugger.deadlock_report();
    std::cout << "analysis: " << report.description << "\n";
    std::cout << "cycle length: " << report.cycle.size() << "\n\n";
  }

  std::cout << "=== races: the self-scheduling task farm ===\n";
  {
    apps::taskfarm::Options opts;
    opts.num_tasks = 24;
    dbg::Debugger debugger(5, [opts](mpi::Comm& comm) {
      apps::taskfarm::rank_body(comm, opts);
    });
    const auto& result = debugger.record();
    std::cout << "run " << (result.completed ? "completed" : "failed")
              << "\n";
    const auto races = debugger.races();
    std::cout << races.races.size()
              << " wildcard receives raced (another message could have "
                 "matched):\n";
    std::size_t shown = 0;
    for (const auto& race : races.races) {
      if (shown++ == 5) {
        std::cout << "  ... and " << races.races.size() - 5 << " more\n";
        break;
      }
      const auto& recv = debugger.trace().event(race.recv_index);
      const auto& send = debugger.trace().event(race.matched_send);
      std::cout << "  recv #" << recv.marker << " on rank " << recv.rank
                << " matched a message from rank " << send.rank << "; "
                << race.candidates.size()
                << " other send(s) could have matched\n";
    }
    std::cout << "\nThese are exactly the matches the replay controller "
                 "pins down:\n"
                 "an uncontrolled re-execution may diverge, a controlled "
                 "replay cannot.\n";
  }
  return 0;
}
