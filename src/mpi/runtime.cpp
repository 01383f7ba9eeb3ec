#include "mpi/runtime.hpp"

#include <exception>
#include <thread>

#include "support/clock.hpp"
#include "support/error.hpp"
#include "telemetry/log.hpp"

namespace tdbg::mpi {

namespace {

thread_local Rank tl_rank = -1;

/// Scope guard for the thread-local rank — also binds the telemetry
/// layer's rank, so flight-recorder records and self-spans written on
/// this thread attribute to the rank.
class RankScope {
 public:
  explicit RankScope(Rank rank) {
    tl_rank = rank;
    telemetry::set_thread_rank(rank);
  }
  ~RankScope() {
    tl_rank = -1;
    telemetry::set_thread_rank(-1);
  }
};

}  // namespace

Rank this_rank() { return tl_rank; }

RunResult run(int num_ranks, const RankBody& body, const RunOptions& options) {
  TDBG_CHECK(num_ranks > 0, "need at least one rank");
  TDBG_CHECK(static_cast<bool>(body), "rank body must be callable");

  support::reset_run_epoch();
  const auto world_ptr =
      std::make_shared<World>(num_ranks, options.hooks, options.controller,
                              options.fault_injector);
  World& world = *world_ptr;
  if (options.on_world_ready) options.on_world_ready(world_ptr);

  std::mutex failures_mu;
  std::vector<RankFailure> failures;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_ranks));
  for (Rank r = 0; r < num_ranks; ++r) {
    threads.emplace_back([&, r] {
      RankScope scope(r);
      Comm comm(&world, r);
      if (options.hooks != nullptr) options.hooks->on_rank_start(r);
      try {
        body(comm);
      } catch (const Aborted&) {
        // Unwound by an abort elsewhere; not a failure of this rank.
      } catch (const std::exception& e) {
        TDBG_LOG(telemetry::LogLevel::kError, "mpi.rank_failed",
                 static_cast<std::uint64_t>(r));
        {
          std::lock_guard lk(failures_mu);
          failures.push_back(RankFailure{r, e.what()});
        }
        world.abort(AbortCause::kRankFailure,
                    "rank " + std::to_string(r) + " failed: " + e.what());
      }
      // Finish hooks may still deliver (the fault engine releases
      // reorder-held messages), so the rank counts as running until
      // they return.
      if (options.hooks != nullptr) options.hooks->on_rank_finish(r);
      if (world.shared().registry.mark_finished(r)) world.declare_deadlock();
    });
  }
  for (auto& t : threads) t.join();

  RunResult result;
  result.failures = std::move(failures);
  const AbortInfo& abort = world.abort_info();
  result.deadlocked = abort.cause == AbortCause::kDeadlock;
  result.completed = abort.cause == AbortCause::kNone && result.failures.empty();
  result.final_waits = abort.waits;
  result.abort_detail = abort.detail;
  return result;
}

}  // namespace tdbg::mpi
