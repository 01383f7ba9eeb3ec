// abl_server_throughput — serving-path latency/throughput ablation for
// the PR-9 analysis service, and the session-cache acceptance gate.
//
// Scenarios (in-process Server over a Unix socket, real wire protocol):
//
//   cold    every match_report hits a *different* fingerprint with a
//           1-entry session cache, so each request pays fingerprint +
//           open_trace + Session build + first match compute;
//   cached  every match_report hits the same resident session, so the
//           request pays only dispatch + artifact reuse + encode;
//   fanout  8 concurrent clients over the cached session — aggregate
//           requests/second for the serving path under contention.
//
// Prints p50/p99 latency and req/s per scenario, then ASSERTS the
// PR-9 acceptance gate: cached-session match_report p50 must be at
// least 10x faster than cold-open p50.  Exits 1 when the gate fails.
// scripts/verify.sh does not run it: the cached p50 re-encodes the
// report on every request, and the ratio has read 9.2x-15.8x on a
// 4-thread host, so the gate is too close to its bound to be a CI
// check until served payloads are memoized.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "support/clock.hpp"
#include "support/rng.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace tdbg;
using namespace tdbg::server;

std::vector<trace::Event> synth_events(std::size_t n, int ranks,
                                       std::uint64_t seed) {
  auto rng = support::SplitMix64(seed).split(1);
  std::vector<trace::Event> events;
  events.reserve(n);
  std::vector<std::uint64_t> next_marker(static_cast<std::size_t>(ranks), 1);
  std::map<std::pair<int, int>, std::pair<std::uint64_t, std::uint64_t>> chan;
  for (std::size_t i = 0; i < n; ++i) {
    trace::Event e;
    const int rank =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ranks)));
    e.rank = rank;
    e.marker = next_marker[static_cast<std::size_t>(rank)]++;
    e.t_start = static_cast<support::TimeNs>(i) * 10;
    e.t_end = e.t_start + 6;
    const auto roll = rng.next_below(4);
    e.kind = trace::EventKind::kCompute;
    if (roll == 0 && ranks > 1) {
      const int peer = static_cast<int>(
          (static_cast<std::uint64_t>(rank) + 1 +
           rng.next_below(static_cast<std::uint64_t>(ranks - 1))) %
          static_cast<std::uint64_t>(ranks));
      e.kind = trace::EventKind::kSend;
      e.peer = peer;
      e.tag = static_cast<mpi::Tag>(rng.next_below(3));
      e.bytes = 8 + rng.next_below(64);
      ++chan[{rank, peer}].first;
    } else if (roll == 1) {
      const auto start = rng.next_below(static_cast<std::uint64_t>(ranks));
      for (int k = 0; k < ranks; ++k) {
        const int src = static_cast<int>(
            (start + static_cast<std::uint64_t>(k)) %
            static_cast<std::uint64_t>(ranks));
        auto& [sent, received] = chan[{src, rank}];
        if (src == rank || received >= sent) continue;
        e.kind = trace::EventKind::kRecv;
        e.peer = src;
        e.channel_seq = static_cast<mpi::ChannelSeq>(received++);
        e.tag = static_cast<mpi::Tag>(rng.next_below(3));
        e.bytes = 8 + rng.next_below(64);
        break;
      }
    }
    events.push_back(e);
  }
  return events;
}

struct LatencyStats {
  double p50_ms = 0;
  double p99_ms = 0;
  double req_per_s = 0;
};

LatencyStats summarize(std::vector<support::TimeNs> samples,
                       support::TimeNs total_ns, std::size_t requests) {
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double q) {
    const auto i = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1));
    return static_cast<double>(samples[i]) * 1e-6;
  };
  LatencyStats s;
  s.p50_ms = at(0.50);
  s.p99_ms = at(0.99);
  s.req_per_s = static_cast<double>(requests) /
                (static_cast<double>(total_ns) * 1e-9);
  return s;
}

LatencyStats drive(Client& client, const std::vector<std::string>& paths,
                   std::size_t requests) {
  std::vector<support::TimeNs> samples;
  samples.reserve(requests);
  const support::Stopwatch all;
  for (std::size_t i = 0; i < requests; ++i) {
    const auto& path = paths[i % paths.size()];
    const support::Stopwatch one;
    const auto response =
        client.call(Op::kMatchReport, encode_trace_arg(path));
    if (response.status != Status::kOk) {
      std::fprintf(stderr, "request failed: %s\n",
                   std::string(status_name(response.status)).c_str());
      std::exit(1);
    }
    samples.push_back(one.elapsed_ns());
  }
  return summarize(std::move(samples), all.elapsed_ns(), requests);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t events = 120'000;
  std::size_t cold_requests = 12;
  std::size_t cached_requests = 200;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--events" && i + 1 < argc) events = std::stoull(argv[++i]);
    if (arg == "--cached-requests" && i + 1 < argc) {
      cached_requests = std::stoull(argv[++i]);
    }
  }

  const auto dir = std::filesystem::temp_directory_path() /
                   ("tdbg_bench_srv_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string sock = (dir / "s.sock").string();

  // Two traces with distinct fingerprints: with a 1-entry cache,
  // alternating between them makes every open cold.
  std::vector<std::string> both;
  for (int t = 0; t < 2; ++t) {
    const auto path = (dir / ("t" + std::to_string(t) + ".trc")).string();
    trace::write_trace(
        path, trace::Trace(8, synth_events(events, 8,
                                           1000 + static_cast<std::uint64_t>(t)),
                           nullptr));
    both.push_back(path);
  }
  const std::vector<std::string> just_first = {both[0]};

  ServerOptions options;
  options.unix_path = sock;
  options.max_sessions = 1;  // forces eviction in the alternating phase
  options.dispatch_threads = 4;
  Server srv(options);
  srv.start();

  LatencyStats cold;
  LatencyStats cached;
  LatencyStats fanout;
  {
    Client client("unix:" + sock);
    // Cold opens: alternate fingerprints through the 1-entry cache.
    cold = drive(client, both, cold_requests);
    // Cached: warm once, then hammer the resident session.
    (void)client.call(Op::kMatchReport, encode_trace_arg(both[0]));
    cached = drive(client, just_first, cached_requests);

    // Concurrent fan-out over the cached session.
    constexpr int kClients = 8;
    const std::size_t per_client = cached_requests / 4;
    const support::Stopwatch all;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&] {
        Client mine("unix:" + sock);
        for (std::size_t i = 0; i < per_client; ++i) {
          (void)mine.call(Op::kMatchReport, encode_trace_arg(both[0]));
        }
      });
    }
    for (auto& t : threads) t.join();
    fanout.req_per_s =
        static_cast<double>(per_client * kClients) /
        (static_cast<double>(all.elapsed_ns()) * 1e-9);
  }
  srv.shutdown();
  srv.wait();
  std::filesystem::remove_all(dir);

  std::fprintf(stderr,
               "server-throughput: cold match_report p50 %.3f ms p99 %.3f ms, "
               "%.1f req/s (%zu requests, %zu events)\n",
               cold.p50_ms, cold.p99_ms, cold.req_per_s, cold_requests,
               events);
  std::fprintf(stderr,
               "server-throughput: cached match_report p50 %.3f ms p99 %.3f "
               "ms, %.1f req/s (%zu requests)\n",
               cached.p50_ms, cached.p99_ms, cached.req_per_s,
               cached_requests);
  std::fprintf(stderr,
               "server-throughput: fanout 8 clients %.1f req/s (cached)\n",
               fanout.req_per_s);

  const double speedup = cold.p50_ms / cached.p50_ms;
  std::fprintf(stderr,
               "server-throughput: cached/cold p50 speedup %.1fx "
               "(gate >= 10x)\n",
               speedup);
  if (speedup < 10.0) {
    std::fprintf(stderr,
                 "FAIL: cached-session p50 not >= 10x faster than cold "
                 "open\n");
    return 1;
  }
  return 0;
}
