// Ablation A8 — the telemetry layer (google-benchmark).
//
// The flight recorder's contract (ISSUE: telemetry) is that a
// *suppressed* TDBG_LOG statement costs one relaxed atomic load — the
// level gate — so the recorder can stay compiled in everywhere, like
// the obs metrics layer and the fault seams.  Before the benchmark
// table, main() asserts that contract directly: the median cost of a
// suppressed log must be within a small factor of a bare relaxed
// load.  The table then puts numbers on the three configurations a
// run can be in: no logging at all, log statements present but
// suppressed (the disabled path the 1.05x acceptance bound covers),
// and the recorder actually capturing a record per message.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "mpi/runtime.hpp"
#include "support/clock.hpp"
#include "telemetry/log.hpp"
#include "telemetry/span.hpp"

namespace {

using namespace tdbg;

/// Rank 0 streams `msgs` small eager messages to rank 1 — the same
/// pipeline abl_fault_overhead measures, so rows are comparable
/// across ablations.
mpi::RankBody pipeline_body(int msgs) {
  return [msgs](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < msgs; ++i) comm.send_value<int>(i, 1, /*tag=*/3);
    } else {
      for (int i = 0; i < msgs; ++i) comm.recv_value<int>(0, /*tag=*/3);
    }
  };
}

/// The same pipeline with one TDBG_LOG statement per message on both
/// sides.  Whether those statements cost anything is decided by the
/// recorder's minimum level, set by each benchmark below.
mpi::RankBody logged_pipeline_body(int msgs) {
  return [msgs](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < msgs; ++i) {
        TDBG_LOG(telemetry::LogLevel::kDebug, "bench.pipeline.send",
                 static_cast<std::uint64_t>(i));
        comm.send_value<int>(i, 1, /*tag=*/3);
      }
    } else {
      for (int i = 0; i < msgs; ++i) {
        TDBG_LOG(telemetry::LogLevel::kDebug, "bench.pipeline.recv",
                 static_cast<std::uint64_t>(i));
        comm.recv_value<int>(0, /*tag=*/3);
      }
    }
  };
}

double run_pipeline(const mpi::RankBody& body, int msgs) {
  const auto start = support::now_ns();
  const auto result = mpi::run(2, body);
  const auto elapsed = support::now_ns() - start;
  if (!result.completed) std::abort();
  return static_cast<double>(elapsed) / static_cast<double>(msgs);
}

/// Keeps the rows comparable: spans off everywhere (the mailbox's
/// slow-path spans would otherwise add jitter unrelated to the log
/// gate), recorder level as requested, both restored on destruction.
struct TelemetryConfig {
  explicit TelemetryConfig(telemetry::LogLevel level) {
    telemetry::SpanCollector::global().set_enabled(false);
    telemetry::FlightRecorder::global().set_min_level(level);
  }
  ~TelemetryConfig() {
    telemetry::FlightRecorder::global().set_min_level(
        telemetry::LogLevel::kDebug);
    telemetry::SpanCollector::global().set_enabled(true);
  }
};

void BM_PipelineBare(benchmark::State& state) {
  constexpr int kMsgs = 20000;
  TelemetryConfig config(telemetry::LogLevel::kOff);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_pipeline(pipeline_body(kMsgs), kMsgs));
  }
  state.SetItemsProcessed(state.iterations() * kMsgs);
}
BENCHMARK(BM_PipelineBare)->Unit(benchmark::kMillisecond);

void BM_PipelineDisabledLog(benchmark::State& state) {
  // One suppressed TDBG_LOG per message on each side — the disabled
  // path the ≤1.05x acceptance bound in EXPERIMENTS.md ("telemetry
  // overhead") is stated against.
  constexpr int kMsgs = 20000;
  TelemetryConfig config(telemetry::LogLevel::kOff);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_pipeline(logged_pipeline_body(kMsgs), kMsgs));
  }
  state.SetItemsProcessed(state.iterations() * kMsgs);
}
BENCHMARK(BM_PipelineDisabledLog)->Unit(benchmark::kMillisecond);

void BM_PipelineFlightRecorder(benchmark::State& state) {
  // Capturing is *supposed* to cost something: a timestamp, a slot
  // claim, five word stores.  This row shows that honest price.
  constexpr int kMsgs = 20000;
  TelemetryConfig config(telemetry::LogLevel::kDebug);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_pipeline(logged_pipeline_body(kMsgs), kMsgs));
  }
  state.SetItemsProcessed(state.iterations() * kMsgs);
}
BENCHMARK(BM_PipelineFlightRecorder)->Unit(benchmark::kMillisecond);

/// Median ns/op of `op` over `reps` batches of `iters` calls.
template <typename Op>
double median_ns_per_op(const Op& op, int reps = 9, int iters = 2000000) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const auto start = support::now_ns();
    for (int i = 0; i < iters; ++i) op();
    const auto elapsed = support::now_ns() - start;
    samples.push_back(static_cast<double>(elapsed) /
                      static_cast<double>(iters));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// The contract assert: a suppressed TDBG_LOG (load the minimum
/// level, compare, branch not taken) ≈ a bare relaxed load.  Runs
/// before the benchmark table so a regression fails the binary
/// (exit 1) even when nobody reads the table.
bool assert_disabled_cost() {
  std::atomic<std::uint8_t> level{255};
  const double load_ns = median_ns_per_op([&] {
    benchmark::DoNotOptimize(level.load(std::memory_order_relaxed));
  });

  telemetry::FlightRecorder::global().set_min_level(telemetry::LogLevel::kOff);
  const double log_ns = median_ns_per_op([&] {
    TDBG_LOG(telemetry::LogLevel::kDebug, "bench.suppressed", 1, 2);
  });
  telemetry::FlightRecorder::global().set_min_level(
      telemetry::LogLevel::kDebug);

  const double budget_ns = 4.0 * load_ns + 2.0;
  // stderr: keeps --benchmark_format=json output parseable.
  std::fprintf(stderr,
               "disabled-telemetry contract: relaxed load %.3f ns/op, "
               "suppressed TDBG_LOG %.3f ns/op (budget %.3f)\n",
               load_ns, log_ns, budget_ns);
  if (log_ns > budget_ns) {
    std::fprintf(stderr,
                 "FAIL: a suppressed TDBG_LOG costs %.3f ns/op, more than "
                 "the %.3f ns/op budget — the disabled log path is no "
                 "longer a single level check\n",
                 log_ns, budget_ns);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!assert_disabled_cost()) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
