// tdbg_perfbench — one end-to-end benchmark over three workloads.
//
//   tdbg_perfbench --workload <postmortem_2m|debug_lu4|serve_zipf>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--workdir <dir>] [--git-sha <sha>]
//
// Prints the named per-workload metrics as text lines, a `meta` JSON line,
// and, last, one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  With --trace 0 the metrics are the end-to-end set, with
// --trace 1 the per-layer set (self times, counters, tracing overhead).

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "support/executor.hpp"

namespace {

using namespace perfbench;

/// BENCHMARK.json `end_to_end`, in order.
const char* const kEndToEnd[][2] = {
    {"setup_s", "s"},    {"write_s", "s"}, {"first_answer_s", "s"},
    {"op_p50_ms", "ms"}, {"pass_s", "s"},
};

/// BENCHMARK.json `per_layer`, in order.  A layer a workload does not
/// call reports 0.
const char* const kPerLayer[][2] = {
    // trace
    {"trace.open_ms", "ms"},
    {"trace.bytes_per_event", "B"},
    {"trace.decode.decoded_bytes", "B"},
    {"trace.decode.segments_skipped", "count"},
    {"trace.cache.hits", "count"},
    {"trace.cache.loads", "count"},
    // analysis
    {"analyze_s", "s"},
    {"analysis.sweep_s", "s"},
    {"analysis.match_s", "s"},
    {"analysis.rank_index_s", "s"},
    {"analysis.traffic_s", "s"},
    {"analysis.races_s", "s"},
    {"analysis.critical_path_s", "s"},
    {"analysis.intertwined_s", "s"},
    {"analysis.cpu_s", "s"},
    {"analysis.wall_s", "s"},
    {"analysis.parallel_x", "x"},
    // causality
    {"causality.causal_order_s", "s"},
    // graph
    {"graph.comm_graph_s", "s"},
    {"graph.action_graph_s", "s"},
    {"graph.trace_graph_s", "s"},
    {"graph.call_graph_s", "s"},
    // mpi + instrument
    {"mpi.run_plain_s", "s"},
    {"mpi.messages", "count"},
    {"mpi.unpinned_abort_share", "ratio"},
    {"record_s", "s"},
    {"instrument.events", "count"},
    {"instrument.record_overhead_x", "x"},
    // replay + debugger
    {"replay_to_p50_ms", "ms"},
    {"step_p50_ms", "ms"},
    {"step_p95_ms", "ms"},
    {"undo_p50_ms", "ms"},
    {"debugger.stopline_ms", "ms"},
    {"replay.step_nostop_share", "ratio"},
    {"replay.undo_reexec_s", "s"},
    // server
    {"req_p50_ms", "ms"},
    {"req_p99_ms", "ms"},
    {"cold_req_p50_ms", "ms"},
    {"req_per_s", "1/s"},
    {"server.op.match_p50_ms", "ms"},
    {"server.op.traffic_p50_ms", "ms"},
    {"server.op.races_p50_ms", "ms"},
    {"server.op.deadlock_p50_ms", "ms"},
    {"server.op.window_p50_ms", "ms"},
    {"server.op.graph_p50_ms", "ms"},
    {"server.op.session_stats_p50_ms", "ms"},
    {"server.cache.hit_share", "ratio"},
    {"server.overloaded", "count"},
    {"server.queue_peak", "count"},
    // support (exec)
    {"exec.threads", "count"},
    {"exec.steals", "count"},
    // self time per layer over the traced sections, from the benchmark's spans
    {"self.trace_s", "s"},
    {"self.analysis_s", "s"},
    {"self.causality_s", "s"},
    {"self.graph_s", "s"},
    {"self.mpi_s", "s"},
    {"self.debugger_s", "s"},
    {"self.server_s", "s"},
    {"self.bench_s", "s"},
    // the benchmark itself
    {"bench.traced_wall_s", "s"},
    {"bench.trace_overhead_s", "s"},
    {"bench.spans", "count"},
    {"bench.generate_s", "s"},
    {"bench.clients", "count"},
    {"failed_share", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "tdbg_perfbench: " << why
            << "\nusage: tdbg_perfbench --workload <postmortem_2m|debug_lu4|serve_zipf>"
               " --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]"
               " [--git-sha <sha>]\n";
  std::exit(2);
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::map<std::string, Metric>& values,
                         const char* const (*names)[2], std::size_t count) {
  std::ostringstream s;
  s << "{";
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(names[i][0]);
    const double v =
        it == values.end() || !std::isfinite(it->second.value) ? 0.0 : it->second.value;
    s << (i ? ", " : "") << "\"" << names[i][0] << "\": {\"value\": " << number(v)
      << ", \"unit\": \"" << names[i][1] << "\"}";
  }
  s << "}";
  return s.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string git_sha = "unknown";
  int trace_flag = -1;
  bool have_seed = false;
  o.work = ".bench_out";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      trace_flag = v == "1" ? 1 : v == "0" ? 0 : -1;
    } else if (a == "--workdir") {
      o.work = v;
    } else if (a == "--git-sha") {
      git_sha = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (!have_seed || trace_flag < 0 || !(o.seconds > 0)) {
    usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }
  o.trace = trace_flag == 1;

  Outcome (*run)(const Options&) = nullptr;
  if (o.workload == "postmortem_2m") run = run_postmortem;
  if (o.workload == "debug_lu4") run = run_debug;
  if (o.workload == "serve_zipf") run = run_serve;
  if (run == nullptr) usage(("unknown workload '" + o.workload + "'").c_str());

  // Scratch files of this run (traces, sockets) live in a private
  // directory under the work directory and are removed at exit.
  const auto out_dir = o.work;
  o.work = out_dir / ("run-" + std::to_string(::getpid()));
  std::filesystem::create_directories(o.work);

  Outcome out;
  try {
    out = run(o);
  } catch (const std::exception& e) {
    std::cerr << "tdbg_perfbench: " << o.workload << " failed: " << e.what() << "\n";
    std::filesystem::remove_all(o.work);
    return 1;
  }
  std::filesystem::remove_all(o.work);
  out.layer["failed_share"] = {
      static_cast<double>(out.failed) / static_cast<double>(std::max<std::uint64_t>(1, out.attempted)),
      "ratio"};

  for (const auto& [name, metric] : out.e2e) {
    if (!std::isfinite(metric.value) || metric.value <= 0) {
      std::cerr << "tdbg_perfbench: end-to-end metric " << name
                << " was not measured (" << metric.value << ")\n";
      return 1;
    }
  }

  std::cout << "== " << o.workload << " seed " << o.seed << (o.trace ? " (traced)" : "")
            << " ==\n";
  for (const auto& line : out.report) std::cout << line << "\n";
  std::cout << "failed_share = " << out.layer["failed_share"].value << " ratio (" << out.failed
            << " failed of " << out.attempted << " attempted)\n";
  if (o.trace) {
    for (std::size_t i = 0; i < std::size(kPerLayer); ++i) {
      const auto it = out.layer.find(kPerLayer[i][0]);
      std::cout << "  " << kPerLayer[i][0] << " = "
                << (it == out.layer.end() ? 0.0 : it->second.value) << " " << kPerLayer[i][1]
                << "\n";
    }
  }

  std::ostringstream meta;
  meta << "{\"meta\": {\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
       << ", \"seconds\": " << number(o.seconds) << ", \"trace\": " << trace_flag
       << ", \"git_sha\": \"" << git_sha << "\", \"nproc\": "
       << std::thread::hardware_concurrency()
       << ", \"exec_pool\": " << tdbg::exec::Executor::default_threads()
       << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"build_type\": \""
       << PERFBENCH_BUILD_TYPE << "\", \"measured_wall_s\": " << number(out.measured_wall_s)
       << ", \"samples\": {";
  bool first = true;
  for (const auto& [name, n] : out.samples) {
    meta << (first ? "" : ", ") << "\"" << name << "\": " << n;
    first = false;
  }
  meta << "}}}";
  std::cout << meta.str() << "\n";

  const bool correct = out.correct;
  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
         << ", \"metrics\": "
         << (o.trace ? json_metrics(out.layer, kPerLayer, std::size(kPerLayer))
                     : json_metrics(out.e2e, kEndToEnd, std::size(kEndToEnd)))
         << "}";

  // Keep a copy of the result (and the spans of a traced run) under
  // the work directory.
  const auto stem = o.workload + "-seed" + std::to_string(o.seed) + "-trace" +
                    std::to_string(trace_flag);
  std::ofstream(out_dir / (stem + ".json"))
      << meta.str() << "\n"
      << "{\"layer\": " << json_metrics(out.layer, kPerLayer, std::size(kPerLayer))
      << "}\n"
      << result.str() << "\n";
  if (o.trace) Tracer::get().write(out_dir / (stem + ".spans.json"));

  std::cout << result.str() << std::endl;
  return 0;
}
