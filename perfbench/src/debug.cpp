// debug_lu4 — the paper's interactive loop: record an LU run on a 2x2
// grid, then repeat stopline → replay_to → steps → undo → end_replay.

#include <atomic>
#include <optional>
#include <stdexcept>

#include "apps/lu.hpp"
#include "common.hpp"
#include "debugger/debugger.hpp"
#include "layers.hpp"
#include "mpi/runtime.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {

namespace {

using namespace tdbg;

constexpr int kRanks = 4;
constexpr int kRecords = 8;     ///< completed recordings before the cycles
constexpr int kLateRecords = 4; ///< and after them (first_answer_s: all of them)
constexpr int kRecordLimit = 4; ///< run times of attempts allowed without a recording
constexpr int kWrites = 10;     ///< v3 saves of each recorded history
constexpr int kMinCycles = 20;  ///< replay cycles per run, at least
constexpr int kCycleLimit = 4;  ///< run times of cycles allowed while fewer succeeded
constexpr int kStepsPerCycle = 10;
constexpr int kSetupsPerGroup = 34;  ///< set-ups per group (setup_s: median of 3 groups)
constexpr int kUnpinnedRuns = 4;     ///< plain runs on every CPU (traced run only)

apps::lu::Options lu_options(std::uint64_t seed) {
  apps::lu::Options opts;
  opts.px = 2;
  opts.py = 2;
  opts.nx = 160;
  opts.ny = 160;
  opts.iterations = 600;
  opts.seed = seed;
  return opts;
}

/// The LU body; rank 0 stores the allreduced checksum in `sink`.
mpi::RankBody lu_body(const apps::lu::Options& opts, std::atomic<double>* sink) {
  return [opts, sink](mpi::Comm& comm) {
    const double sum = apps::lu::rank_body(comm, opts);
    if (comm.rank() == 0) sink->store(sum);
  };
}

using Markers = std::map<mpi::Rank, std::uint64_t>;

Markers markers_of(const std::vector<replay::StopInfo>& stops) {
  Markers m;
  for (const auto& s : stops) m[s.rank] = s.marker;
  return m;
}

Markers armed(const replay::Stopline& line) {
  Markers m;
  for (std::size_t r = 0; r < line.thresholds.size(); ++r) {
    if (line.thresholds[r]) m[static_cast<mpi::Rank>(r)] = *line.thresholds[r];
  }
  return m;
}

std::string show(const Markers& m) {
  std::string s = "{";
  for (const auto& [rank, marker] : m) {
    s += " " + std::to_string(rank) + ":" + std::to_string(marker);
  }
  return s + " }";
}

/// Ranks that may appear in a result without being wanted: at the
/// given marker, or (nullopt) at any marker.
using Extras = std::map<mpi::Rank, std::optional<std::uint64_t>>;

/// Compares `got` with `want`: a rank missing from `got` is a failed
/// operation (the command returned before the rank parked), a rank at
/// another marker is a wrong answer.  Ranks in `may_extra` may appear
/// in `got` without being wanted.
bool compare(Outcome& out, const Markers& want, Markers got, const Extras& may_extra,
             const std::string& what) {
  const std::string detail = ": want " + show(want) + ", got " + show(got);
  bool complete = true;
  bool right = true;
  for (const auto& [rank, marker] : want) {
    const auto it = got.find(rank);
    if (it == got.end()) {
      complete = false;
      continue;
    }
    right = right && it->second == marker;
    got.erase(it);
  }
  for (const auto& [rank, marker] : got) {
    const auto it = may_extra.find(rank);
    right = right && it != may_extra.end() && (!it->second || *it->second == marker);
  }
  check(out, complete, what + " returned before every rank parked" + detail);
  verify(out, right, what + " parked a rank at the wrong marker" + detail);
  return complete && right;
}

/// Samples of one run's replay commands.
struct ReplaySamples {
  std::vector<double> stopline_ms, replay_ms, step_ms, undo_ms;
  /// Per cycle, undo minus end_replay: both first finish a replay
  /// parked near the same markers, so the rest is undo's re-execution.
  std::vector<double> undo_reexec_s;
  std::uint64_t steps = 0;
  std::uint64_t nostop = 0;
};

/// One replay cycle at display-time fraction `frac` of the history.
/// Latencies of commands that failed are not sampled (they count as
/// failed operations instead); returns whether every command succeeded.
bool replay_cycle(dbg::Debugger& session, double frac, support::SplitMix64& rng,
                  std::uint64_t unit, ReplaySamples& s, Outcome& out) {
  const auto& history = session.trace();
  const auto t = history.t_min() +
                 static_cast<TimeNs>(frac * static_cast<double>(history.t_max() - history.t_min()));
  double t0 = now_s();
  replay::Stopline line;
  {
    Span span("debugger.stopline", unit);
    line = session.stopline_at(t);
  }
  s.stopline_ms.push_back((now_s() - t0) * 1e3);

  t0 = now_s();
  std::vector<replay::StopInfo> stops;
  {
    Span span("debugger.replay_to", unit);
    stops = session.replay_to(line);
  }
  const double replay_ms = (now_s() - t0) * 1e3;
  const Markers want = armed(line);
  bool ok = compare(out, want, markers_of(stops), {}, "replay_to");
  if (ok) s.replay_ms.push_back(replay_ms);

  // Steps on ranks that can make progress; keep the markers from
  // before the last resumption for the undo check.  A rank replay_to
  // returned without (the quiescence race, counted above) may park at
  // its threshold later, and undo then restores it there.
  Markers at = markers_of(stops);
  Markers before_last = at;
  Extras may_extra;
  for (const auto& [rank, marker] : want) {
    if (!at.count(rank)) may_extra[rank] = marker;
  }
  for (int k = 0; k < kStepsPerCycle && !at.empty(); ++k) {
    auto it = at.begin();
    std::advance(it, static_cast<long>(rng.next_below(at.size())));
    const mpi::Rank rank = it->first;
    before_last = at;
    t0 = now_s();
    std::optional<replay::StopInfo> stop;
    {
      Span span("debugger.step", unit);
      stop = session.step(rank);
    }
    s.step_ms.push_back((now_s() - t0) * 1e3);
    ++s.steps;
    if (stop) {
      const bool advanced = stop->rank == rank && stop->marker > before_last[rank];
      verify(out, advanced, "step did not advance rank " + std::to_string(rank));
      ok = ok && advanced;
      at[rank] = stop->marker;
    } else {
      // The rank blocked on a parked peer (or finished); it may park
      // again later, once a peer's step feeds it.
      ++s.nostop;
      at.erase(rank);
      may_extra[rank] = std::nullopt;
    }
  }

  t0 = now_s();
  std::optional<std::vector<replay::StopInfo>> undone;
  {
    Span span("debugger.undo", unit);
    undone = session.undo();
  }
  const double undo_ms = (now_s() - t0) * 1e3;
  check(out, undone.has_value(), "undo had nothing to undo");
  const bool restored =
      undone && compare(out, before_last, markers_of(*undone), may_extra, "undo");
  if (restored) s.undo_ms.push_back(undo_ms);
  ok = ok && restored;

  t0 = now_s();
  std::optional<mpi::RunResult> result;
  {
    Span span("debugger.end_replay", unit);
    result = session.end_replay();
  }
  const double end_ms = (now_s() - t0) * 1e3;
  const bool completed = result && result->completed;
  check(out, completed,
        "replay did not run to completion: " + (result ? result->abort_detail : ""));
  if (restored && completed) s.undo_reexec_s.push_back((undo_ms - end_ms) * 1e-3);
  return ok && completed;
}

}  // namespace

Outcome run_debug(const Options& o) {
  Outcome out;
  const auto opts = lu_options(o.seed);
  support::SplitMix64 rng(o.seed ^ 0x6c75346465627567ull);
  std::atomic<double> checksum{0};

  // On every CPU of a VM host, a rank woken on an idle vCPU can wait
  // several ms for the host to schedule it, and the runtime's deadlock
  // watchdog (three stable 2 ms samples) aborts such runs as deadlocks;
  // the workload runs on one CPU (see pin_to_one_cpu).  The defect,
  // measured: the share of plain runs on every CPU that abort (traced
  // run only; not counted as operations).
  if (o.trace) {
    int aborted = 0;
    for (int i = 0; i < kUnpinnedRuns; ++i) {
      if (!mpi::run(kRanks, lu_body(opts, &checksum)).completed) ++aborted;
    }
    out.layer["mpi.unpinned_abort_share"] = {
        static_cast<double>(aborted) / kUnpinnedRuns, "ratio"};
    out.report.push_back("mpi.unpinned_abort_share = " +
                         std::to_string(static_cast<double>(aborted) / kUnpinnedRuns) +
                         " ratio (" + std::to_string(aborted) + " of " +
                         std::to_string(kUnpinnedRuns) + " plain runs on every CPU aborted)");
  }
  pin_to_one_cpu();

  // Set-up: the analysis pool plus a Debugger over the target, in
  // groups spread over the run (before the recordings, before and
  // after the replay cycles).
  std::vector<double> setup;
  std::optional<exec::ScopedExecutor> pool;
  const auto set_up = [&] {
    for (int i = 0; i < kSetupsPerGroup; ++i) {
      pool.reset();
      const double t0 = now_s();
      pool.emplace(exec::Executor::default_threads());
      dbg::Debugger probe(kRanks, lu_body(opts, &checksum));
      setup.push_back(now_s() - t0);
    }
  };
  set_up();

  // A traced run traces the recording and analysis phase, then every
  // other replay cycle.
  const ObsDelta obs;
  const double wall0 = now_s();
  Tracer::get().set_enabled(o.trace);
  std::vector<double> plain_s, record_s, write_s;
  // One plain run and one recording (then its v3 saves); returns the
  // Debugger when the recording completed.  A run the program aborts
  // (its deadlock watchdog fires falsely on a loaded host) is a failed
  // operation, not a sample.
  const auto record_once = [&]() -> std::optional<dbg::Debugger> {
    double t0 = now_s();
    bool plain_ok = false;
    {
      Span s("mpi.run_plain", 0);
      const auto result = mpi::run(kRanks, lu_body(opts, &checksum));
      plain_ok = result.completed;
      check(out, plain_ok, "plain LU run did not complete: " + result.abort_detail);
    }
    if (plain_ok) plain_s.push_back(now_s() - t0);
    const double plain_checksum = checksum.load();

    std::optional<dbg::Debugger> attempt;
    attempt.emplace(kRanks, lu_body(opts, &checksum));
    t0 = now_s();
    bool record_ok = false;
    {
      Span s("debugger.record", 0);
      const auto& result = attempt->record();
      record_ok = result.completed;
      check(out, record_ok, "recorded LU run did not complete: " + result.abort_detail);
    }
    if (!record_ok) return std::nullopt;
    record_s.push_back(now_s() - t0);
    if (plain_ok) {
      verify(out, checksum.load() == plain_checksum,
             "recorded LU checksum differs from the uninstrumented run");
    }
    const auto path = o.work / "lu.trc";
    for (int w = 0; w < kWrites; ++w) {
      std::filesystem::remove(path);  // each save creates its file
      t0 = now_s();
      Span s("trace.write", 0);
      trace::write_trace(path, attempt->trace(), trace::TraceFormat::kBinaryV3);
      write_s.push_back(now_s() - t0);
    }
    std::filesystem::remove(path);
    return attempt;
  };

  // Recordings until kRecords complete; attempts stop after one run
  // time once a recording exists, and after kRecordLimit without one.
  std::optional<dbg::Debugger> session;
  const double record_start = now_s();
  for (int done = 0; done < kRecords;) {
    const double elapsed = now_s() - record_start;
    if (elapsed >= kRecordLimit * o.seconds || (session && elapsed >= o.seconds)) break;
    if (auto recorded = record_once()) {
      session.swap(recorded);
      ++done;
    }
  }
  if (!session) {
    throw std::runtime_error("no LU run completed within " +
                             std::to_string(kRecordLimit * o.seconds) + " s of attempts");
  }
  const auto& history = session->trace();
  std::uint64_t sends = 0;
  history.for_each_event([&](std::size_t, const trace::Event& e) {
    if (e.kind == trace::EventKind::kSend) ++sends;
  });

  // The debugger's history displays: every artifact once (small here,
  // and the only workload small enough for the quadratic intertwined
  // pass).
  {
    auto& analysis = session->session();
    double t0 = now_s();
    {
      Span s("analysis.all", 0);
      digest_artifacts(analysis);
    }
    out.layer["analysis.wall_s"] = {now_s() - t0, "s"};
    t0 = now_s();
    {
      Span s("analysis.intertwined", 0);
      analysis.intertwined();
    }
    out.layer["analysis.intertwined_s"] = {now_s() - t0, "s"};
  }
  double traced_wall = o.trace ? now_s() - wall0 : 0;

  Tracer::get().set_enabled(false);
  set_up();

  ReplaySamples samples;
  std::vector<double> cycle_s, unit_untraced, unit_traced;
  const double start = now_s();
  const double deadline = start + o.seconds;
  std::size_t good_cycles = 0;
  // Until the run time is up and kMinCycles cycles succeeded, but never
  // past kCycleLimit run times (a host where replays keep aborting).
  std::uint64_t unit = 0;
  for (; (now_s() < deadline || good_cycles < kMinCycles) && now_s() < start + kCycleLimit * o.seconds;
       ++unit) {
    const bool traced = o.trace && unit % 2 == 1;
    Tracer::get().set_enabled(traced);
    const double frac = 0.15 + 0.7 * rng.next_double();
    const double u0 = now_s();
    bool ok = false;
    try {
      Span root("bench.cycle", unit);
      ok = replay_cycle(*session, frac, rng, unit, samples, out);
    } catch (const std::exception& e) {
      check(out, false, std::string("replay cycle threw: ") + e.what());
      try {
        session->end_replay();
      } catch (const std::exception&) {
      }
    }
    const double dt = now_s() - u0;
    if (traced) traced_wall += dt;
    if (!ok) continue;
    ++good_cycles;
    cycle_s.push_back(dt);
    (traced ? unit_traced : unit_untraced).push_back(dt);
  }
  Tracer::get().set_enabled(false);
  out.measured_wall_s = now_s() - wall0;
  set_up();
  // More recordings after the cycles, so that first_answer_s samples
  // span the run (bounded by half a run time).
  const double late_start = now_s();
  for (int done = 0; done < kLateRecords && now_s() - late_start < o.seconds / 2;) {
    if (record_once()) ++done;
  }

  out.e2e["setup_s"] = {median(setup), "s"};
  out.e2e["write_s"] = {median(write_s), "s"};
  out.e2e["first_answer_s"] = {median(record_s), "s"};
  out.e2e["op_p50_ms"] = {median(samples.step_ms), "ms"};
  out.e2e["pass_s"] = {median(cycle_s), "s"};
  describe("setup_s", setup, "s", out);
  describe("write_s", write_s, "s", out);
  describe("record_s", record_s, "s", out);
  describe("replay_to_p50_ms", samples.replay_ms, "ms", out);
  describe("step_p50_ms", samples.step_ms, "ms", out);
  describe("undo_p50_ms", samples.undo_ms, "ms", out);
  describe("replay.undo_reexec_s (undo minus end_replay)", samples.undo_reexec_s, "s", out);
  describe("pass_s (one replay cycle)", cycle_s, "s", out);

  out.layer["record_s"] = {median(record_s), "s"};
  out.layer["replay_to_p50_ms"] = {median(samples.replay_ms), "ms"};
  out.layer["step_p50_ms"] = {median(samples.step_ms), "ms"};
  out.layer["step_p95_ms"] = {percentile(samples.step_ms, 95), "ms"};
  out.layer["undo_p50_ms"] = {median(samples.undo_ms), "ms"};
  out.layer["mpi.run_plain_s"] = {median(plain_s), "s"};
  out.layer["mpi.messages"] = {static_cast<double>(sends), "count"};
  out.layer["instrument.events"] = {static_cast<double>(history.size()), "count"};
  if (!plain_s.empty()) {
    out.layer["instrument.record_overhead_x"] = {median(record_s) / median(plain_s), "x"};
  }
  out.layer["debugger.stopline_ms"] = {median(samples.stopline_ms), "ms"};
  out.layer["replay.step_nostop_share"] = {
      static_cast<double>(samples.nostop) /
          static_cast<double>(std::max<std::uint64_t>(1, samples.steps)),
      "ratio"};
  out.layer["replay.undo_reexec_s"] = {median(samples.undo_reexec_s), "s"};
  obs.report(out, static_cast<double>(unit));
  report_traced(out, traced_wall, unit_untraced, unit_traced);
  return out;
}

}  // namespace perfbench
