// postmortem_2m — the AIMS-style post-mortem path: save a ~2.1M-event
// history as v3, open it cold, and pull every analysis artifact once.

#include <optional>

#include "analysis/session.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "support/executor.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {

namespace {

using namespace tdbg;

constexpr std::size_t kEvents = 1u << 21;
constexpr int kRanks = 8;
constexpr std::size_t kWildcards = 256;
constexpr int kSetupsPerGroup = 34;  ///< pool starts per group (setup_s: median of 3 groups)
constexpr int kRounds = 7;            ///< write + first answer + windows, per pass
constexpr int kFirstAnswersPerRound = 3;  ///< cold open + match (first_answer_s)
constexpr int kWindowsPerRound = 8;   ///< time-window queries (op_p50_ms samples)
constexpr int kWindows = 41;          ///< distinct seeded windows

/// A seeded time window and the digest of the events it returns.
struct WindowQuery : TimeWindow {
  std::uint64_t digest = 0;
};

/// Zooms `trace` to [t0, t1] (the time-space diagram's window query)
/// and digests what it returns.
std::uint64_t window_digest(const trace::Trace& trace, TimeNs t0, TimeNs t1) {
  std::uint64_t h = fnv1a(nullptr, 0);
  trace.for_each_in_window(t0, t1, [&](std::size_t i, const trace::Event& e) {
    h = fnv1a(&i, sizeof i, h);
    h = fnv1a(&e.rank, sizeof e.rank, h);
    h = fnv1a(&e.marker, sizeof e.marker, h);
  });
  return h;
}

/// One getter of the pipeline, called in dependency order so each
/// timing is that pass's own cost (its inputs are already cached).
struct Pass {
  const char* span;    ///< "<layer>.<pass>"
  const char* metric;  ///< per-layer metric name
  void (*pull)(analysis::Session&);
};

const Pass kPasses[] = {
    {"analysis.sweep", "analysis.sweep_s", [](analysis::Session& s) { s.sweep(); }},
    {"analysis.match", "analysis.match_s", [](analysis::Session& s) { s.match_report(); }},
    {"analysis.rank_index", "analysis.rank_index_s", [](analysis::Session& s) { s.rank_index(); }},
    {"analysis.traffic", "analysis.traffic_s", [](analysis::Session& s) { s.traffic(); }},
    {"causality.causal_order", "causality.causal_order_s", [](analysis::Session& s) { s.causal_order(); }},
    {"analysis.races", "analysis.races_s", [](analysis::Session& s) { s.races(); }},
    {"graph.comm_graph", "graph.comm_graph_s", [](analysis::Session& s) { s.comm_graph(); }},
    {"graph.action_graph", "graph.action_graph_s", [](analysis::Session& s) { s.action_graph(); }},
    {"graph.trace_graph", "graph.trace_graph_s", [](analysis::Session& s) { s.trace_graph(); }},
    {"graph.call_graph", "graph.call_graph_s", [](analysis::Session& s) { s.call_graph(); }},
    {"analysis.critical_path", "analysis.critical_path_s", [](analysis::Session& s) { s.critical_path(); }},
};

}  // namespace

Outcome run_postmortem(const Options& o) {
  Outcome out;
  const double g0 = now_s();
  const trace::Trace history = synthetic_trace(o.seed, kEvents, kRanks, kWildcards);
  out.layer["bench.generate_s"] = {now_s() - g0, "s"};

  // Set-up: the analysis pool, started in groups spread over the run
  // (before the reference, before and after the measurement) so that
  // setup_s sees the host as the rest of the run does.
  std::vector<double> setup;
  std::optional<exec::ScopedExecutor> pool;
  const auto set_up = [&] {
    for (int i = 0; i < kSetupsPerGroup; ++i) {
      pool.reset();
      const double t0 = now_s();
      pool.emplace(exec::Executor::default_threads());
      setup.push_back(now_s() - t0);
    }
  };
  set_up();

  // Reference artifacts and windows from the in-memory history, before
  // any timing.
  std::vector<ArtifactDigest> reference;
  {
    analysis::Session ref(history);
    reference = digest_artifacts(ref);
  }
  support::SplitMix64 rng(o.seed ^ 0x706f73746d6f7274ull);
  std::vector<WindowQuery> windows;
  for (int i = 0; i < kWindows; ++i) {
    WindowQuery w{seeded_window(rng, history.t_min(), history.t_max(),
                                static_cast<std::size_t>(i))};
    w.digest = window_digest(history, w.t0, w.t1);
    windows.push_back(w);
  }

  const auto path = o.work / "postmortem.trc";
  std::vector<double> write_s, first_s, analyze_s, window_ms, open_ms, passes_s, cpu_s;
  std::map<std::string, std::vector<double>> pass_s;
  // Tracing overhead is taken on the rounds (seven per unit), not on the
  // units themselves: a traced run has only two units.
  std::vector<double> unit_traced, round_untraced, round_traced;
  std::optional<analysis::Session> session;
  // Cold open, then every artifact in dependency order.
  const auto analyze = [&](std::uint64_t unit) {
    const double t0 = now_s();
    {
      Span s("trace.open", unit);
      session.emplace(trace::open_trace(path));
    }
    const double opened = now_s();
    const double cpu0 = process_cpu_s();
    open_ms.push_back((opened - t0) * 1e3);
    for (const auto& p : kPasses) {
      const double p0 = now_s();
      {
        Span s(p.span, unit);
        p.pull(*session);
      }
      pass_s[p.metric].push_back(now_s() - p0);
    }
    cpu_s.push_back(process_cpu_s() - cpu0);
    passes_s.push_back(now_s() - opened);
    analyze_s.push_back(now_s() - t0);
  };

  const ObsDelta obs;
  // A traced run alternates untraced and traced passes, so it needs
  // at least one of each.
  const std::uint64_t min_units = o.trace ? 2 : 1;
  set_up();
  const double deadline = now_s() + o.seconds;
  for (std::uint64_t unit = 0; unit < min_units || now_s() < deadline; ++unit) {
    const bool traced = o.trace && unit % 2 == 1;
    Tracer::get().set_enabled(traced);
    const double u0 = now_s();
    bool window_ok = true;
    {
      Span root("bench.postmortem", unit);
      // The short operations run in rounds spread around the full
      // analysis, so their samples span the whole pass.
      for (int round = 0; round < kRounds; ++round) {
        // Each save creates its file, as saving a new history does;
        // dropping the previous copy is not part of the save.
        std::filesystem::remove(path);
        const double r0 = now_s();
        double t0 = r0;
        {
          Span s("trace.write", unit);
          trace::write_trace(path, history, trace::TraceFormat::kBinaryV3);
        }
        write_s.push_back(now_s() - t0);

        // The first answer: a cold open, then the match report.
        for (int i = 0; i < kFirstAnswersPerRound; ++i) {
          t0 = now_s();
          Span s("bench.first_answer", unit);
          std::optional<trace::Trace> cold;
          {
            Span open("trace.open", unit);
            cold.emplace(trace::open_trace(path));
          }
          analysis::Session first(*cold);
          {
            Span match("analysis.match", unit);
            first.match_report();
          }
          first_s.push_back(now_s() - t0);
        }

        // Zooming the time-space diagram: window queries on that file.
        const auto browsed = trace::open_trace(path);
        for (int i = 0; i < kWindowsPerRound; ++i) {
          const auto& w = windows[(round * kWindowsPerRound + i) % windows.size()];
          t0 = now_s();
          std::uint64_t digest = 0;
          {
            Span s("trace.window", unit);
            digest = window_digest(browsed, w.t0, w.t1);
          }
          window_ms.push_back((now_s() - t0) * 1e3);
          window_ok = window_ok && digest == w.digest;
        }
        (traced ? round_traced : round_untraced).push_back(now_s() - r0);
        if (round == kRounds / 2) analyze(unit);
      }
    }
    const double dt = now_s() - u0;
    Tracer::get().set_enabled(false);
    if (traced) unit_traced.push_back(dt);
    verify(out, window_ok, "postmortem: a v3 window query differs from the in-memory trace");

    // Artifacts of the v3-opened session must equal the in-memory
    // reference byte for byte (checked outside the timed unit).
    const auto got = digest_artifacts(*session);
    for (std::size_t i = 0; i < reference.size(); ++i) {
      verify(out, i < got.size() && got[i] == reference[i],
             "postmortem: v3 artifact " + reference[i].name +
                 " differs from the in-memory trace");
    }
    session.reset();  // freed outside the timed pass
  }
  Tracer::get().set_enabled(false);
  out.measured_wall_s = now_s() - (deadline - o.seconds);
  set_up();

  const double file_bytes = static_cast<double>(std::filesystem::file_size(path));
  std::filesystem::remove(path);

  out.e2e["setup_s"] = {median(setup), "s"};
  out.e2e["write_s"] = {median(write_s), "s"};
  out.e2e["first_answer_s"] = {median(first_s), "s"};
  out.e2e["op_p50_ms"] = {median(window_ms), "ms"};
  out.e2e["pass_s"] = {median(analyze_s), "s"};
  describe("setup_s", setup, "s", out);
  describe("write_s", write_s, "s", out);
  describe("first_answer_s", first_s, "s", out);
  describe("analyze_s", analyze_s, "s", out);
  describe("op_p50_ms (one time-window query)", window_ms, "ms", out);

  for (const auto& [name, v] : pass_s) out.layer[name] = {median(v), "s"};
  out.layer["analyze_s"] = {median(analyze_s), "s"};
  out.layer["trace.open_ms"] = {median(open_ms), "ms"};
  out.layer["trace.bytes_per_event"] = {file_bytes / static_cast<double>(kEvents), "B"};
  out.layer["analysis.cpu_s"] = {median(cpu_s), "s"};
  out.layer["analysis.wall_s"] = {median(passes_s), "s"};
  out.layer["analysis.parallel_x"] = {median(cpu_s) / median(passes_s), "x"};
  obs.report(out, static_cast<double>(analyze_s.size()));
  double traced_wall = 0;
  for (const double t : unit_traced) traced_wall += t;
  report_traced(out, traced_wall, round_untraced, round_traced);
  return out;
}

}  // namespace perfbench
