#include "common.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>

namespace perfbench {

void check(Outcome& out, bool ok, const std::string& what) {
  ++out.attempted;
  if (!ok) {
    ++out.failed;
    std::cerr << "FAILED: " << what << "\n";
  }
}

void verify(Outcome& out, bool ok, const std::string& what) {
  check(out, ok, what);
  if (!ok) out.correct = false;
}

void pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &set)) ++cpu;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

void describe(const std::string& name, const std::vector<double>& samples,
              const std::string& unit, Outcome& out) {
  out.samples[name] = samples.size();
  std::ostringstream line;
  line.precision(6);
  line << name << " = " << median(samples) << " " << unit << " (median of "
       << samples.size() << "; p95 " << percentile(samples, 95) << ")";
  out.report.push_back(line.str());
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- Tracer ----------------------------------------------------------------

namespace {

struct ThreadState {
  std::uint32_t id = 0;
  bool has_id = false;
  std::vector<std::int64_t> stack;  ///< open spans on this thread
};
thread_local ThreadState tls;

TimeNs steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_enabled(bool on) { enabled_.store(on); }

std::int64_t Tracer::open(const char* name, std::uint64_t op) {
  if (!enabled_.load(std::memory_order_relaxed)) return -1;
  if (!tls.has_id) {
    tls.id = next_thread_.fetch_add(1);
    tls.has_id = true;
  }
  Record r;
  r.name = name;
  r.parent = tls.stack.empty() ? -1 : tls.stack.back();
  r.op = op;
  r.thread = tls.id;
  r.start_ns = steady_ns();
  std::int64_t index = 0;
  {
    std::lock_guard lock(mu_);
    index = static_cast<std::int64_t>(records_.size());
    records_.push_back(std::move(r));
  }
  tls.stack.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  if (index < 0) return;
  const auto t = steady_ns();
  if (!tls.stack.empty() && tls.stack.back() == index) tls.stack.pop_back();
  std::lock_guard lock(mu_);
  records_[static_cast<std::size_t>(index)].end_ns = t;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::lock_guard lock(mu_);
  std::vector<std::vector<std::pair<TimeNs, TimeNs>>> children(records_.size());
  for (const auto& r : records_) {
    if (r.parent >= 0) {
      children[static_cast<std::size_t>(r.parent)].emplace_back(r.start_ns,
                                                                r.end_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    TimeNs covered = 0;
    TimeNs cur_start = 0;
    TimeNs cur_end = -1;
    for (auto [a, b] : kids) {
      a = std::max(a, r.start_ns);
      b = std::min(b, r.end_ns);
      if (b <= a) continue;
      if (a > cur_end) {
        if (cur_end > cur_start) covered += cur_end - cur_start;
        cur_start = a;
        cur_end = b;
      } else {
        cur_end = std::max(cur_end, b);
      }
    }
    if (cur_end > cur_start) covered += cur_end - cur_start;
    out[layer_of(r.name)] +=
        static_cast<double>(r.end_ns - r.start_ns - covered) * 1e-9;
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mu_);
  return records_.size();
}

void Tracer::write(const std::filesystem::path& path) const {
  std::lock_guard lock(mu_);
  std::ofstream f(path);
  f << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,",
                  r.thread, static_cast<double>(r.start_ns) * 1e-3,
                  static_cast<double>(r.end_ns - r.start_ns) * 1e-3);
    f << (i == 0 ? "" : ",\n") << "{\"name\":\"" << r.name << "\"," << buf
      << "\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
      << ",\"op\":" << r.op << "}}";
  }
  f << "\n]}\n";
}

// --- inputs ----------------------------------------------------------------

TimeWindow seeded_window(tdbg::support::SplitMix64& rng, TimeNs t_min, TimeNs t_max,
                         std::size_t i) {
  constexpr double kShares[] = {0.002, 0.005, 0.01, 0.02};
  const auto span = t_max - t_min;
  const auto width =
      static_cast<TimeNs>(static_cast<double>(span) * kShares[i % std::size(kShares)]);
  TimeWindow w;
  w.t0 = t_min + static_cast<TimeNs>(rng.next_below(static_cast<std::uint64_t>(span - width)));
  w.t1 = w.t0 + width;
  return w;
}

tdbg::trace::Trace synthetic_trace(std::uint64_t seed, std::size_t events,
                                   int ranks, std::size_t wildcards) {
  using namespace tdbg;
  auto registry = std::make_shared<trace::ConstructRegistry>();
  const auto c_work = registry->intern("work", "synthetic.cpp", 1);
  const auto c_msg = registry->intern("msg", "synthetic.cpp", 2);

  support::SplitMix64 rng(seed);
  const auto n = static_cast<std::size_t>(ranks);
  std::vector<std::uint64_t> marker(n, 0);
  std::vector<support::TimeNs> clock(n, 0);
  std::vector<std::vector<mpi::ChannelSeq>> chan_seq(
      n, std::vector<mpi::ChannelSeq>(n, 0));
  // About one event in eleven is a receive; one receive in
  // `wild_period` is a wildcard, spreading `wildcards` over the run.
  const std::uint64_t wild_period =
      std::max<std::uint64_t>(1, events / 11 / std::max<std::size_t>(1, wildcards));
  std::size_t wild = 0;
  std::vector<trace::Event> out;
  out.reserve(events + 1);
  auto advance = [&](std::size_t r, trace::Event& e) {
    e.rank = static_cast<mpi::Rank>(r);
    e.marker = ++marker[r];
    e.t_start = clock[r];
    clock[r] += static_cast<support::TimeNs>(1 + rng.next_below(20));
    e.t_end = clock[r];
  };
  while (out.size() < events) {
    const auto r = static_cast<std::size_t>(rng.next_below(n));
    if (rng.next_below(10) == 0) {
      const auto dst = (r + 1 + rng.next_below(n - 1)) % n;
      const auto seq = chan_seq[r][dst]++;
      trace::Event send;
      advance(r, send);
      send.kind = trace::EventKind::kSend;
      send.construct = c_msg;
      send.peer = static_cast<mpi::Rank>(dst);
      send.tag = 1;
      send.channel_seq = seq;
      send.bytes = 256;
      out.push_back(send);
      trace::Event recv;
      advance(dst, recv);
      recv.kind = trace::EventKind::kRecv;
      recv.construct = c_msg;
      recv.peer = static_cast<mpi::Rank>(r);
      recv.tag = 1;
      recv.channel_seq = seq;
      recv.bytes = 256;
      if (wild < wildcards && rng.next_below(wild_period) == 0) {
        recv.wildcard = true;
        ++wild;
      }
      out.push_back(recv);
    } else {
      trace::Event e;
      advance(r, e);
      e.kind = trace::EventKind::kCompute;
      e.construct = c_work;
      out.push_back(e);
    }
  }
  return trace::Trace(ranks, std::move(out), std::move(registry));
}

}  // namespace perfbench
