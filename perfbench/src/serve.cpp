// serve_zipf — many short reads against resident sessions plus a tail
// of cold opens: closed-loop clients over a Unix socket, Zipf-popular
// traces, a fixed op mix.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <limits>
#include <list>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "analysis/session.hpp"
#include "common.hpp"
#include "graph/export.hpp"
#include "layers.hpp"
#include "server/client.hpp"
#include "server/ops.hpp"
#include "server/server.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {

namespace {

using namespace tdbg;

constexpr std::size_t kTraces = 32;
constexpr std::size_t kTraceEvents = 120000;
constexpr int kRanks = 8;
constexpr std::size_t kWildcards = 32;
constexpr std::size_t kWindowsPerTrace = 8;
constexpr double kZipfExponent = 1.9;  ///< ~10% misses with the default cache
constexpr std::size_t kClients = 1;
constexpr std::uint64_t kMinRequests = 2000;  ///< measured, across all clients
constexpr std::uint64_t kWarmup = 400;        ///< untimed requests first
constexpr std::uint64_t kBatch = 200;  ///< requests per pass_s sample
constexpr int kWrites = 2;   ///< v3 saves of each trace, before and after the requests
constexpr int kSetupsPerGroup = 14;  ///< server starts per group (setup_s: median of 3 groups)

/// The op mix: the seven analysis ops, drawn with equal weight (no
/// measured client mix exists to weight them by).
struct MixEntry {
  server::Op op;
  const char* name;
};
const MixEntry kMix[] = {
    {server::Op::kMatchReport, "match"},
    {server::Op::kTraffic, "traffic"},
    {server::Op::kRaces, "races"},
    {server::Op::kDeadlock, "deadlock"},
    {server::Op::kWindow, "window"},
    {server::Op::kGraphDot, "graph"},
    {server::Op::kSessionStats, "session_stats"},
};
constexpr std::size_t kOps = std::size(kMix);

struct Window : TimeWindow {
  std::vector<std::byte> payload;  ///< expected response payload
};

/// Expected payloads of one trace, from a direct Session on its file.
struct Expected {
  std::string path;
  std::uint64_t events = 0;
  std::vector<std::byte> match, traffic, races, deadlock, graph;
  std::vector<Window> windows;
};

Expected expected_for(const std::string& path, support::SplitMix64& rng) {
  Expected x;
  x.path = path;
  const auto trace = trace::open_trace(path);
  analysis::Session session(trace);
  x.events = trace.size();
  x.match = server::encode_match_report(session.match_report());
  x.traffic = server::encode_traffic(session.traffic());
  x.races = server::encode_races(session.races());
  x.deadlock = server::encode_deadlock(server::deadlock_from_trace(session));
  x.graph = server::encode_text(graph::to_dot(session.comm_graph().to_export()));
  for (std::size_t i = 0; i < kWindowsPerTrace; ++i) {
    Window w{seeded_window(rng, trace.t_min(), trace.t_max(), i)};
    std::vector<trace::Event> events;
    trace.for_each_in_window(w.t0, w.t1, [&](std::size_t, const trace::Event& e) {
      events.push_back(e);
    });
    w.payload = server::encode_events(events);
    x.windows.push_back(std::move(w));
  }
  return x;
}

/// The benchmark's model of the server's LRU session cache (default
/// capacity), used to tell cold requests from warm ones.
class CacheModel {
 public:
  explicit CacheModel(std::size_t capacity) : capacity_(capacity) {}
  /// Touches `key`; true when the model had it resident.
  bool touch(std::size_t key) {
    std::lock_guard lock(mu_);
    const auto it = std::find(lru_.begin(), lru_.end(), key);
    const bool hit = it != lru_.end();
    if (hit) lru_.erase(it);
    lru_.push_front(key);
    if (lru_.size() > capacity_) lru_.pop_back();
    return hit;
  }

 private:
  std::mutex mu_;
  std::list<std::size_t> lru_;  ///< guarded by mu_
  std::size_t capacity_;
};

struct ClientStats {
  std::vector<double> all_ms, cold_ms;
  std::vector<std::uint64_t> batch;  ///< the batch of each all_ms sample
  std::array<std::vector<double>, kOps> op_ms, cold_op_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
};

const char* const kSpanNames[kOps] = {
    "server.match", "server.traffic", "server.races", "server.deadlock",
    "server.window", "server.graph", "server.session_stats"};

}  // namespace

Outcome run_serve(const Options& o) {
  Outcome out;
  support::SplitMix64 seeds(o.seed);
  const auto dir = o.work;
  // Client, server and pool threads on one CPU: on every CPU of a 4-vCPU
  // VM host the same requests took ~1.6x as long (each request hands off
  // between three or more threads) and spread twice as wide from run to
  // run.
  pin_to_one_cpu();

  // Set-up: pool + server start, in groups spread over the run (before
  // the inputs, before and after the measurement); the server of the
  // middle group serves the run.
  std::vector<double> setup;
  std::optional<exec::ScopedExecutor> pool;
  std::unique_ptr<server::Server> srv;
  server::ServerOptions options;
  std::string endpoint;
  int starts = 0;
  const auto set_up = [&] {
    for (int i = 0; i < kSetupsPerGroup; ++i) {
      srv.reset();
      pool.reset();
      options.unix_path = (dir / ("s" + std::to_string(starts++) + ".sock")).string();
      endpoint = "unix:" + options.unix_path;
      const double t0 = now_s();
      pool.emplace(exec::Executor::default_threads());
      srv = std::make_unique<server::Server>(options);
      srv->start();
      setup.push_back(now_s() - t0);
      server::Client(endpoint).ping();  // listening before the next start
    }
  };
  set_up();

  // Inputs: 32 seeded traces, each written as v3 (the writes are timed;
  // generating the events is not).  The traces are saved again after
  // the requests, so that write_s samples span the run: a single-thread
  // save's speed drifts with the host over seconds.
  std::vector<std::string> paths;
  std::vector<double> write_s;
  double generate_s = 0;
  const auto save_all = [&](bool served) {
    for (std::size_t i = 0; i < kTraces; ++i) {
      const double g0 = now_s();
      const auto history =
          synthetic_trace(seeds.split(i).next(), kTraceEvents, kRanks, kWildcards);
      generate_s += now_s() - g0;
      const auto path =
          served ? (dir / ("t" + std::to_string(i) + ".trc")).string() : (dir / "resave.trc").string();
      if (served) paths.push_back(path);
      for (int w = 0; w < kWrites; ++w) {
        std::filesystem::remove(path);  // each save creates its file
        const double t0 = now_s();
        trace::write_trace(path, history, trace::TraceFormat::kBinaryV3);
        write_s.push_back(now_s() - t0);
      }
    }
  };
  save_all(true);
  out.layer["bench.generate_s"] = {generate_s, "s"};

  std::vector<Expected> expected;
  support::SplitMix64 window_rng = seeds.split(1000);
  for (const auto& p : paths) expected.push_back(expected_for(p, window_rng));

  set_up();

  // Zipf popularity over a seeded permutation of the traces.
  std::vector<std::size_t> by_rank(kTraces);
  for (std::size_t i = 0; i < kTraces; ++i) by_rank[i] = i;
  support::SplitMix64 perm = seeds.split(2000);
  for (std::size_t i = kTraces - 1; i > 0; --i) {
    std::swap(by_rank[i], by_rank[perm.next_below(i + 1)]);
  }
  std::vector<double> zipf_cdf;
  double total = 0;
  for (std::size_t i = 0; i < kTraces; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    zipf_cdf.push_back(total);
  }

  // One closed-loop client.  With two (one per default dispatcher) a
  // request's latency depended on what the other client's request was
  // doing: a cold open fans out over the exec pool, and the batch mean
  // varied by a third from run to run.
  const std::size_t clients = kClients;
  CacheModel model(server::ServerOptions{}.max_sessions);
  std::vector<ClientStats> stats(clients);
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> stop{false};
  // The first kWarmup requests fill the session cache and are checked
  // but not timed; measurement (and the run time) starts after them.
  std::mutex batch_mu;
  std::vector<double> batch_marks;      ///< guarded by batch_mu
  server::SessionCache::Stats cache0;   ///< guarded by batch_mu
  std::atomic<double> deadline{std::numeric_limits<double>::infinity()};

  const ObsDelta obs;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& st = stats[c];
      support::SplitMix64 rng = seeds.split(3000 + c);
      std::optional<server::Client> connected;
      try {
        connected.emplace(endpoint);
      } catch (const std::exception& e) {
        ++st.attempted;
        ++st.failed;
        std::cerr << "FAILED: serve: client " << c << " could not connect: " << e.what() << "\n";
        return;
      }
      auto& client = *connected;
      std::uint64_t issued = 0;
      while (!stop.load()) {
        const double z = rng.next_double() * total;
        const auto pop = static_cast<std::size_t>(
            std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), z) - zipf_cdf.begin());
        const auto& x = expected[by_rank[std::min(pop, kTraces - 1)]];
        const auto op = static_cast<std::size_t>(rng.next_below(kOps));
        const Window* window = nullptr;
        std::vector<std::byte> args;
        if (kMix[op].op == server::Op::kWindow) {
          window = &x.windows[rng.next_below(kWindowsPerTrace)];
          args = server::encode_window_args(x.path, window->t0, window->t1);
        } else if (kMix[op].op == server::Op::kGraphDot) {
          args = server::encode_graph_args(x.path, server::GraphKind::kComm);
        } else {
          args = server::encode_trace_arg(x.path);
        }

        const bool model_hit = model.touch(static_cast<std::size_t>(&x - expected.data()));
        const auto misses0 = srv->cache_stats().misses;
        const double t0 = now_s();
        server::Response resp;
        bool io_ok = true;
        try {
          Span s(kSpanNames[op], issued);
          resp = client.call(kMix[op].op, std::move(args));
        } catch (const std::exception&) {
          io_ok = false;
        }
        const double ms = (now_s() - t0) * 1e3;
        const bool cold = !model_hit && srv->cache_stats().misses != misses0;

        const bool served = io_ok && resp.status == server::Status::kOk;
        bool same = true;
        if (served) {
          switch (kMix[op].op) {
            case server::Op::kMatchReport: same = resp.payload == x.match; break;
            case server::Op::kTraffic: same = resp.payload == x.traffic; break;
            case server::Op::kRaces: same = resp.payload == x.races; break;
            case server::Op::kDeadlock: same = resp.payload == x.deadlock; break;
            case server::Op::kWindow: same = resp.payload == window->payload; break;
            case server::Op::kGraphDot: same = resp.payload == x.graph; break;
            default: {
              try {
                const auto info = server::decode_session_stats(resp.payload);
                same = info.events == x.events && info.watermark == x.events;
              } catch (const std::exception&) {
                same = false;
              }
            }
          }
        }
        ++st.attempted;
        if (!served || !same) {
          ++st.failed;
          st.correct = st.correct && same;
          std::cerr << "FAILED: serve: " << kMix[op].name << " on " << x.path
                    << (served ? " returned a payload that differs from a direct Session"
                               : " was not served: " +
                                     std::string(io_ok ? server::status_name(resp.status)
                                                       : "connection error"))
                    << "\n";
        }
        ++issued;
        const auto n = ++completed;
        if (n > kWarmup && served && same) {
          st.all_ms.push_back(ms);
          st.batch.push_back((n - kWarmup - 1) / kBatch);
          st.op_ms[op].push_back(ms);
          if (cold) {
            st.cold_ms.push_back(ms);
            st.cold_op_ms[op].push_back(ms);
          }
        }
        if (n >= kWarmup && (n - kWarmup) % kBatch == 0) {
          std::lock_guard lock(batch_mu);
          const double now = now_s();
          if (n == kWarmup) {
            cache0 = srv->cache_stats();
            deadline.store(now + o.seconds);
          }
          batch_marks.push_back(now);
          // The traced run alternates untraced and traced batches.
          Tracer::get().set_enabled(o.trace && ((n - kWarmup) / kBatch) % 2 == 1);
        }
        if (now_s() >= deadline.load() && n >= kWarmup + kMinRequests) stop.store(true);
      }
    });
  }
  for (auto& t : threads) t.join();
  Tracer::get().set_enabled(false);
  if (batch_marks.empty()) throw std::runtime_error("no request completed the warm-up");
  out.measured_wall_s = now_s() - batch_marks.front();
  const auto cache1 = srv->cache_stats();
  srv->shutdown();
  srv->wait();
  set_up();
  srv.reset();
  save_all(false);

  ClientStats all;
  for (auto& st : stats) {
    all.all_ms.insert(all.all_ms.end(), st.all_ms.begin(), st.all_ms.end());
    all.cold_ms.insert(all.cold_ms.end(), st.cold_ms.begin(), st.cold_ms.end());
    for (std::size_t i = 0; i < kOps; ++i) {
      all.op_ms[i].insert(all.op_ms[i].end(), st.op_ms[i].begin(), st.op_ms[i].end());
      all.cold_op_ms[i].insert(all.cold_op_ms[i].end(), st.cold_op_ms[i].begin(),
                               st.cold_op_ms[i].end());
    }
    out.attempted += st.attempted;
    out.failed += st.failed;
    out.correct = out.correct && st.correct;
  }
  // The mean request latency of each complete batch; their median is
  // the end-to-end latency.  The per-request median falls in the gap
  // between the cheap cached reads and the slower ops, so it jumps from
  // run to run.  Requests after the last batch mark (a partial batch)
  // are left out.
  const std::size_t batches = batch_marks.size() - 1;
  std::vector<double> batch_sum(batches, 0.0), batch_n(batches, 0.0);
  for (const auto& st : stats) {
    for (std::size_t i = 0; i < st.all_ms.size(); ++i) {
      if (st.batch[i] >= batches) continue;
      batch_sum[st.batch[i]] += st.all_ms[i];
      batch_n[st.batch[i]] += 1;
    }
  }
  std::vector<double> batch_mean_ms;
  for (std::size_t b = 0; b < batches; ++b) {
    if (batch_n[b] > 0) batch_mean_ms.push_back(batch_sum[b] / batch_n[b]);
  }
  // A cold request costs an open plus the op's own work, which differs
  // by an order of magnitude between ops, so the median over all cold
  // requests falls between ops and jumps with the mix of the few
  // hundred misses.  The cold latency of the mix is the mean over the
  // ops (equal weights, as drawn) of each op's cold median.
  double cold_mix_ms = 0;
  for (const auto& cold : all.cold_op_ms) {
    if (cold.empty()) throw std::runtime_error("an op of the mix never missed the session cache");
    cold_mix_ms += median(cold) / kOps;
  }
  std::vector<double> batch_s, unit_untraced, unit_traced;
  for (std::size_t i = 1; i < batch_marks.size(); ++i) {
    const double dt = batch_marks[i] - batch_marks[i - 1];
    batch_s.push_back(dt);
    (o.trace && i % 2 == 0 ? unit_traced : unit_untraced).push_back(dt);
  }

  const double req_per_s =
      static_cast<double>(completed.load() - kWarmup) / out.measured_wall_s;
  out.e2e["setup_s"] = {median(setup), "s"};
  out.e2e["write_s"] = {median(write_s), "s"};
  out.e2e["first_answer_s"] = {cold_mix_ms * 1e-3, "s"};
  out.e2e["op_p50_ms"] = {median(batch_mean_ms), "ms"};
  out.e2e["pass_s"] = {median(batch_s), "s"};
  describe("setup_s", setup, "s", out);
  describe("write_s (one 120k-event trace)", write_s, "s", out);
  describe("op_p50_ms (mean request latency of one batch of 200)", batch_mean_ms, "ms", out);
  describe("req_p50_ms", all.all_ms, "ms", out);
  describe("cold_req_p50_ms", all.cold_ms, "ms", out);
  for (std::size_t i = 0; i < kOps; ++i) {
    describe(std::string("cold ") + kMix[i].name + " request (ms)", all.cold_op_ms[i], "ms",
             out);
  }
  out.report.push_back("first_answer_s = " + std::to_string(cold_mix_ms * 1e-3) +
                       " s (mean over the ops of each op's cold median)");
  describe("pass_s (one batch of 200 requests)", batch_s, "s", out);
  out.report.push_back("req_per_s = " + std::to_string(req_per_s) + " 1/s (" +
                       std::to_string(clients) + " closed-loop clients)");

  out.layer["req_p50_ms"] = {median(all.all_ms), "ms"};
  out.layer["req_p99_ms"] = {percentile(all.all_ms, 99), "ms"};
  out.layer["cold_req_p50_ms"] = {median(all.cold_ms), "ms"};
  out.layer["req_per_s"] = {req_per_s, "1/s"};
  out.layer["bench.clients"] = {static_cast<double>(clients), "count"};
  for (std::size_t i = 0; i < kOps; ++i) {
    out.layer[std::string("server.op.") + kMix[i].name + "_p50_ms"] = {median(all.op_ms[i]),
                                                                      "ms"};
  }
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double misses = static_cast<double>(cache1.misses - cache0.misses);
  out.layer["server.cache.hit_share"] = {hits / std::max(1.0, hits + misses), "ratio"};
  out.samples["req_p99_ms"] = all.all_ms.size();
  obs.report(out, static_cast<double>(batch_s.size()));
  double traced_wall = 0;
  for (const double t : unit_traced) traced_wall += t;
  report_traced(out, traced_wall, unit_untraced, unit_traced);
  return out;
}

}  // namespace perfbench
