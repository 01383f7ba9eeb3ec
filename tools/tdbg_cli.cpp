// tdbg-cli — interactive trace-driven debugging of the bundled target
// programs (the p2d2 console analog).
//
// Usage:
//   tdbg_cli <target> [--script <file>] [--auto-record] [--stats]
//            [--fault-plan <name>] [--fault-seed <n>]
//            [--chrome-trace <out.json>] [--threads <n>]
//
// --stats dumps the final metrics report (per-rank sends/recvs/bytes/
// recv-block time, collector flush stats, analysis timings, analysis
// pool task/steal counts) on exit.
//
// --threads sizes the analysis thread pool (default: hardware
// concurrency, capped; 1 = fully serial analysis).  The TDBG_THREADS
// environment variable does the same without a flag.
//
// --chrome-trace writes the whole session as Chrome trace_event JSON
// on exit — the application's message events (pid "app", one thread
// row per rank) next to the debugger's own phases (pid "tdbg":
// record/replay/analysis spans, mpi match/park waits, trace flushes,
// fault injections).  Load it in chrome://tracing or Perfetto.
//
// --fault-plan arms a named fault-injection plan (see
// `tdbg::fault::FaultPlan::names()`) for the recorded run; --fault-seed
// sets the plan's RNG seed so the faulted execution is reproducible:
//
//   tdbg_cli ring4 --fault-seed 42 --fault-plan deadlock_ring --auto-record
//
// If the faulted run hangs or crashes, a partial trace is flushed to
// `tdbg_fault_partial.trc` with a structured hang diagnosis on stderr,
// and the flight recorder's tail (whose last records name the injected
// fault) is dumped to `tdbg_flight.log`.
//
// Targets:
//   ring4            4-rank token ring
//   strassen8        distributed Strassen, 8 ranks, correct
//   strassen8-buggy  the paper's Fig. 5-7 bug (deadlocks)
//   taskfarm5        self-scheduling farm (wildcard races)
//   lu8              NPB-LU-style wavefront on a 4x2 grid
//   halo4            BSP halo-exchange relaxation
//
// With --script, commands come from the file (one per line, '#'
// comments) instead of stdin — which is also how the test-suite
// exercises this binary's command set.
//
// Service mode:
//   tdbg_cli serve [--socket <path>] [--port <n>] [--max-sessions <n>]
//                  [--max-pending <n>] [--threads <n>] [--stats]
//
// runs the trace-analysis daemon (`tdbg::server::Server`) instead of a
// debugging session: clients (`tdbg_client`, `tdbg::server::Client`)
// query recorded traces over a Unix or TCP socket and share one
// analysis session per trace.  Stops on SIGINT/SIGTERM or a client's
// `shutdown` request, draining admitted work first.

#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>

#include "apps/halo.hpp"
#include "apps/lu.hpp"
#include "apps/ring.hpp"
#include "apps/strassen.hpp"
#include "apps/taskfarm.hpp"
#include "debugger/commands.hpp"
#include "fault/hang.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "server/server.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "telemetry/log.hpp"
#include "telemetry/span.hpp"
#include "viz/chrome.hpp"

namespace {

struct Target {
  int ranks = 0;
  tdbg::mpi::RankBody body;
};

Target make_target(const std::string& name) {
  using namespace tdbg::apps;
  if (name == "ring4") {
    return {4, [](tdbg::mpi::Comm& comm) {
              ring::Options opts;
              opts.laps = 3;
              ring::rank_body(comm, opts);
            }};
  }
  if (name == "strassen8" || name == "strassen8-buggy") {
    strassen::Options opts;
    opts.n = 64;
    opts.cutoff = 16;
    opts.buggy = name == "strassen8-buggy";
    return {8, [opts](tdbg::mpi::Comm& comm) { strassen::rank_body(comm, opts); }};
  }
  if (name == "taskfarm5") {
    taskfarm::Options opts;
    opts.num_tasks = 30;
    return {5, [opts](tdbg::mpi::Comm& comm) { taskfarm::rank_body(comm, opts); }};
  }
  if (name == "lu8") {
    lu::Options opts;
    opts.px = 4;
    opts.py = 2;
    opts.nx = 12;
    opts.ny = 12;
    opts.iterations = 2;
    return {8, [opts](tdbg::mpi::Comm& comm) { lu::rank_body(comm, opts); }};
  }
  if (name == "halo4") {
    halo::Options opts;
    opts.cells = 64;
    opts.max_steps = 40;
    return {4, [opts](tdbg::mpi::Comm& comm) { halo::rank_body(comm, opts); }};
  }
  return {};
}

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

/// `tdbg_cli serve`: run the analysis service until a client sends
/// `shutdown` or the process receives SIGINT/SIGTERM.
int run_server(const tdbg::server::ServerOptions& options, bool stats) {
  tdbg::server::Server server(options);
  try {
    server.start();
  } catch (const tdbg::Error& e) {
    std::cerr << "tdbg serve: " << e.what() << "\n";
    return 2;
  }
  std::cout << "tdbg server listening on";
  if (!options.unix_path.empty()) std::cout << " unix:" << options.unix_path;
  if (server.tcp_port() >= 0) std::cout << " tcp:127.0.0.1:" << server.tcp_port();
  std::cout << "\n" << std::flush;

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (!server.finished()) {
    if (g_stop.load(std::memory_order_relaxed)) server.shutdown();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.wait();
  const auto cache = server.cache_stats();
  std::cout << "tdbg server drained (" << cache.hits << " cache hit(s), "
            << cache.misses << " load(s), " << cache.evictions
            << " eviction(s))\n";
  if (stats) {
    std::cout << "--- stats ---\n"
              << tdbg::obs::MetricsRegistry::global().snapshot().to_text();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string target_name;
  std::string script_path;
  std::string fault_plan_name;
  std::string chrome_path;
  std::uint64_t fault_seed = 0;
  bool auto_record = false;
  bool stats = false;
  tdbg::server::ServerOptions serve_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--script" && i + 1 < argc) {
      script_path = argv[++i];
    } else if (arg == "--socket" && i + 1 < argc) {
      serve_options.unix_path = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      serve_options.tcp_port = std::atoi(argv[++i]);
    } else if (arg == "--max-sessions" && i + 1 < argc) {
      serve_options.max_sessions = std::stoull(argv[++i]);
    } else if (arg == "--max-pending" && i + 1 < argc) {
      serve_options.max_pending = std::stoull(argv[++i]);
    } else if (arg == "--fault-plan" && i + 1 < argc) {
      fault_plan_name = argv[++i];
    } else if (arg == "--fault-seed" && i + 1 < argc) {
      fault_seed = std::stoull(argv[++i]);
    } else if (arg == "--chrome-trace" && i + 1 < argc) {
      chrome_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      const unsigned long long n = std::stoull(argv[++i]);
      if (n < 1) {
        std::cerr << "--threads wants a positive count\n";
        return 2;
      }
      tdbg::exec::Executor::set_default_threads(static_cast<std::size_t>(n));
    } else if (arg == "--auto-record") {
      auto_record = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: tdbg_cli <ring4|strassen8|strassen8-buggy|"
                   "taskfarm5|lu8> [--script file] [--auto-record] "
                   "[--stats] [--fault-plan name] [--fault-seed n] "
                   "[--chrome-trace out.json] [--threads n]\n"
                   "       tdbg_cli serve [--socket path] [--port n] "
                   "[--max-sessions n] [--max-pending n] [--threads n] "
                   "[--stats]\n";
      return 0;
    } else {
      target_name = arg;
    }
  }
  if (target_name == "serve") {
    if (serve_options.unix_path.empty() && serve_options.tcp_port < 0) {
      std::cerr << "serve wants --socket <path> and/or --port <n>\n";
      return 2;
    }
    return run_server(serve_options, stats);
  }
  auto target = make_target(target_name);
  if (target.ranks == 0) {
    std::cerr << "unknown target '" << target_name << "' (try --help)\n";
    return 2;
  }

  tdbg::dbg::Debugger debugger(target.ranks, target.body);
  if (!fault_plan_name.empty()) {
    try {
      debugger.set_fault_plan(
          tdbg::fault::FaultPlan::named(fault_plan_name, fault_seed));
    } catch (const tdbg::UsageError& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }
  tdbg::dbg::CommandInterpreter interpreter(debugger);

  std::ifstream script;
  std::istream* in = &std::cin;
  const bool interactive = script_path.empty();
  if (!interactive) {
    script.open(script_path);
    if (!script) {
      std::cerr << "cannot open script " << script_path << "\n";
      return 2;
    }
    in = &script;
  }

  if (auto_record) {
    std::cout << interpreter.execute("record").output;
  }
  if (interactive) {
    std::cout << "tdbg: trace-driven debugger — target " << target_name
              << " (" << target.ranks << " ranks). `help` for commands.\n";
  }

  std::string line;
  int failures = 0;
  while (true) {
    if (interactive) std::cout << "(tdbg) " << std::flush;
    if (!std::getline(*in, line)) break;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    if (!interactive && !line.empty()) std::cout << "(tdbg) " << line << "\n";
    const auto result = interpreter.execute(line);
    std::cout << result.output;
    if (!result.ok) ++failures;
    if (result.quit) break;
  }
  if (debugger.fault_engine() != nullptr && !debugger.run_result().completed) {
    // The faulted run hung or crashed: flush the partial trace for
    // post-mortem work, print the structured diagnosis, and drop the
    // flight recorder's tail next to it — its last records name the
    // injected fault that explains the hang.
    const auto diagnosis = tdbg::fault::diagnose_hang(
        debugger.run_result(), debugger.trace(), "tdbg_fault_partial.trc");
    std::cerr << diagnosis.describe();
    std::ofstream flight("tdbg_flight.log");
    if (flight) {
      flight << tdbg::telemetry::FlightRecorder::global().dump_text();
      std::cerr << "  flight log written to tdbg_flight.log\n";
    }
  }
  if (!chrome_path.empty()) {
    std::ofstream out(chrome_path);
    if (!out) {
      std::cerr << "cannot write " << chrome_path << "\n";
      return 2;
    }
    const bool recorded = debugger.recorded();
    const auto n = tdbg::viz::write_chrome_trace(
        out, recorded ? debugger.trace() : tdbg::trace::Trace{},
        tdbg::telemetry::SpanCollector::global().snapshot());
    std::cout << "wrote " << n << " event(s) to " << chrome_path << "\n";
  }
  if (stats) {
    std::cout << "--- stats ---\n"
              << tdbg::obs::MetricsRegistry::global().snapshot().to_text();
  }
  return failures == 0 ? 0 : 1;
}
