#include "layers.hpp"

#include "graph/export.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using namespace tdbg;

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

template <typename T>
std::uint64_t hash_vec(const std::vector<T>& v, std::uint64_t h) {
  const std::uint64_t n = v.size();
  h = fnv1a(&n, sizeof n, h);
  return v.empty() ? h : fnv1a(v.data(), v.size() * sizeof(T), h);
}

std::uint64_t hash_str(const std::string& s) { return fnv1a(s.data(), s.size()); }

}  // namespace

std::vector<ArtifactDigest> digest_artifacts(analysis::Session& session) {
  const auto& trace = session.trace();
  const auto& constructs = trace.constructs();
  std::vector<ArtifactDigest> out;

  std::uint64_t h = fnv1a(nullptr, 0);
  const auto& report = session.match_report();
  for (const auto& m : report.matches) {
    h = fnv1a(&m.send_index, sizeof m.send_index, h);
    h = fnv1a(&m.recv_index, sizeof m.recv_index, h);
  }
  h = hash_vec(report.unmatched_sends, h);
  out.push_back({"match_report", hash_vec(report.unmatched_recvs, h)});

  h = fnv1a(nullptr, 0);
  for (const auto& seq : session.rank_index().seq) h = hash_vec(seq, h);
  out.push_back({"rank_index", h});

  out.push_back({"traffic", hash_str(session.traffic().to_string())});

  const auto& order = session.causal_order();
  h = fnv1a(nullptr, 0);
  for (std::size_t e = 0; e < trace.size(); ++e) h = hash_vec(order.clock(e), h);
  out.push_back({"causal_order", h});

  h = fnv1a(nullptr, 0);
  for (const auto& r : session.races().races) {
    h = fnv1a(&r.recv_index, sizeof r.recv_index, h);
    h = fnv1a(&r.matched_send, sizeof r.matched_send, h);
    h = hash_vec(r.candidates, h);
  }
  out.push_back({"races", h});

  out.push_back({"comm_graph", hash_str(graph::to_dot(session.comm_graph().to_export()))});
  out.push_back({"action_graph",
                 hash_str(graph::to_dot(session.action_graph().to_export(constructs)))});
  out.push_back({"trace_graph",
                 hash_str(graph::to_dot(session.trace_graph().to_export(constructs)))});
  out.push_back({"call_graph",
                 hash_str(graph::to_dot(session.call_graph().to_export(constructs)))});

  const auto& path = session.critical_path();
  h = hash_vec(path.events, fnv1a(nullptr, 0));
  h = hash_vec(path.durations, h);
  h = hash_vec(path.per_rank, h);
  h = fnv1a(&path.total, sizeof path.total, h);
  out.push_back({"critical_path", fnv1a(&path.rank_switches, sizeof path.rank_switches, h)});
  return out;
}

std::uint64_t obs_total(const char* name) {
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const auto* m = snap.find(name);
  return m == nullptr ? 0 : m->total();
}

namespace {

/// Counters reported per measured unit: (obs name, metric name, unit).
const char* const kCounters[][3] = {
    {"trace.decode.decoded_bytes", "trace.decode.decoded_bytes", "B"},
    {"trace.decode.segments_skipped", "trace.decode.segments_skipped", "count"},
    {"trace.cache.hits", "trace.cache.hits", "count"},
    {"trace.cache.loads", "trace.cache.loads", "count"},
    {"exec.steals", "exec.steals", "count"},
};

}  // namespace

ObsDelta::ObsDelta() {
  for (const auto& c : kCounters) start_[c[0]] = obs_total(c[0]);
  start_["server.overload_rejections"] = obs_total("server.overload_rejections");
}

void ObsDelta::report(Outcome& out, double units) const {
  for (const auto& c : kCounters) {
    const double delta = static_cast<double>(obs_total(c[0]) - start_.at(c[0]));
    out.layer[c[1]] = {units > 0 ? delta / units : 0, c[2]};
  }
  out.layer["exec.threads"] = {static_cast<double>(obs_total("exec.threads")), "count"};
  out.layer["server.overloaded"] = {
      static_cast<double>(obs_total("server.overload_rejections") -
                          start_.at("server.overload_rejections")),
      "count"};
  out.layer["server.queue_peak"] = {
      static_cast<double>(obs_total("server.queue_depth_peak")), "count"};
}

void report_traced(Outcome& out, double traced_wall_s, const std::vector<double>& untraced,
                   const std::vector<double>& traced) {
  auto& tracer = Tracer::get();
  if (traced.empty()) return;
  for (const auto& [layer, s] : tracer.self_seconds()) {
    out.layer["self." + layer + "_s"] = {s, "s"};
  }
  out.layer["bench.traced_wall_s"] = {traced_wall_s, "s"};
  out.layer["bench.trace_overhead_s"] = {
      untraced.empty() ? 0 : median(traced) - median(untraced), "s"};
  out.layer["bench.spans"] = {static_cast<double>(tracer.size()), "count"};
}

}  // namespace perfbench
