// Tests for tdbg::telemetry — the flight recorder (structured logging
// into per-rank lock-free rings), span self-profiling, Chrome
// trace_event export, the health heartbeat, and their integration with
// the debugger (flight dump on a forced hang, `health` / `flightrec`
// commands).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "apps/ring.hpp"
#include "debugger/commands.hpp"
#include "debugger/debugger.hpp"
#include "fault/hang.hpp"
#include "fault/plan.hpp"
#include "support/clock.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/health.hpp"
#include "telemetry/log.hpp"
#include "telemetry/span.hpp"
#include "viz/chrome.hpp"

namespace tdbg {
namespace {

// --- flight recorder ---------------------------------------------------

TEST(FlightRecorder, RecordsCarrySiteRankLevelAndArgs) {
  telemetry::FlightRecorder rec(/*capacity=*/64);
  const auto site = telemetry::intern_site("test.basic");
  rec.log_rank(3, telemetry::LogLevel::kInfo, site, 7, 9);
  const auto records = rec.dump();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].site, site);
  EXPECT_EQ(records[0].rank, 3);
  EXPECT_EQ(records[0].level, telemetry::LogLevel::kInfo);
  EXPECT_EQ(records[0].a0, 7u);
  EXPECT_EQ(records[0].a1, 9u);
  EXPECT_EQ(telemetry::site_name(site), "test.basic");
}

TEST(FlightRecorder, RingWrapsKeepingTheNewestRecords) {
  // Capacity rounds to a power of two; all records land in one ring
  // (single rank), so appending 3x capacity must keep exactly the
  // last `capacity` records — a black box keeps the tail.
  telemetry::FlightRecorder rec(/*capacity=*/8);
  const auto site = telemetry::intern_site("test.wrap");
  for (std::uint64_t i = 0; i < 24; ++i) {
    rec.log_rank(0, telemetry::LogLevel::kInfo, site, i);
  }
  const auto records = rec.dump();
  ASSERT_EQ(records.size(), 8u);
  for (const auto& r : records) EXPECT_GE(r.a0, 16u);
  EXPECT_EQ(rec.appended(), 24u);
}

TEST(FlightRecorder, LevelGateSuppressesBelowMinimum) {
  telemetry::FlightRecorder rec(/*capacity=*/16);
  rec.set_min_level(telemetry::LogLevel::kWarn);
  EXPECT_FALSE(rec.enabled(telemetry::LogLevel::kInfo));
  EXPECT_TRUE(rec.enabled(telemetry::LogLevel::kError));
  const auto site = telemetry::intern_site("test.gate");
  rec.log(telemetry::LogLevel::kInfo, site);   // suppressed
  rec.log(telemetry::LogLevel::kError, site);  // kept
  EXPECT_EQ(rec.dump().size(), 1u);

  rec.set_min_level(telemetry::LogLevel::kOff);
  EXPECT_FALSE(rec.enabled(telemetry::LogLevel::kError));
}

TEST(FlightRecorder, ConcurrentWritersAndDumpsAreSafe) {
  // Hammer one recorder from several writer threads (two per ring to
  // force slot contention) while a reader dumps continuously.  TSan
  // runs this test too (the telemetry label is in verify.sh's TSan
  // pass); assertions here are liveness + sanity, the seqlock protocol
  // is what's under test.
  telemetry::FlightRecorder rec(/*capacity=*/128);
  const auto site = telemetry::intern_site("test.concurrent");
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20'000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& r : rec.dump()) {
        // A torn record would show an unknown site or absurd rank.
        ASSERT_EQ(r.site, site);
        ASSERT_TRUE(r.rank == 0 || r.rank == 1);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        rec.log_rank(w % 2, telemetry::LogLevel::kInfo, site, i);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(rec.appended(), kWriters * kPerWriter);
  // Capacity is per ring; ranks 0 and 1 hash to different rings, and
  // both wrapped many times over.
  EXPECT_EQ(rec.dump().size(), 2u * 128u);
}

TEST(FlightRecorder, DumpTextTailsAndSortsByTime) {
  telemetry::FlightRecorder rec(/*capacity=*/32);
  const auto site = telemetry::intern_site("test.text");
  for (std::uint64_t i = 0; i < 5; ++i) {
    rec.log_rank(static_cast<int>(i % 2), telemetry::LogLevel::kWarn, site, i);
  }
  const auto text = rec.dump_text(/*max_records=*/2);
  // Two lines, each mentioning the site and the WARN level.
  std::istringstream lines(text);
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("test.text"), std::string::npos);
    EXPECT_NE(line.find("WARN"), std::string::npos);
    ++n;
  }
  EXPECT_EQ(n, 2);
}

TEST(FlightRecorder, MacroCompilesAndLogsThroughTheGlobal) {
  const auto before = telemetry::FlightRecorder::global().appended();
  TDBG_LOG(telemetry::LogLevel::kWarn, "test.macro", 1, 2);
  TDBG_LOG(telemetry::LogLevel::kWarn, "test.macro.noargs");
  EXPECT_EQ(telemetry::FlightRecorder::global().appended(), before + 2);
}

// --- spans -------------------------------------------------------------

TEST(SpanCollector, RecordsRaiiSpans) {
  auto& collector = telemetry::SpanCollector::global();
  collector.reset();
  {
    telemetry::Span span("test.span");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto spans = collector.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(telemetry::site_name(spans[0].name), "test.span");
  EXPECT_GE(spans[0].t_end - spans[0].t_start, 1'000'000);
  EXPECT_GE(spans[0].t_start, 0);
}

TEST(SpanCollector, DisabledSpansRecordNothing) {
  auto& collector = telemetry::SpanCollector::global();
  collector.reset();
  collector.set_enabled(false);
  { telemetry::Span span("test.disabled"); }
  collector.set_enabled(true);
  EXPECT_TRUE(collector.snapshot().empty());
}

TEST(SpanCollector, FullCollectorDropsInsteadOfOverwriting) {
  telemetry::SpanCollector collector(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    collector.add(telemetry::intern_site("test.drop"), i, i, i + 1);
  }
  EXPECT_EQ(collector.snapshot().size(), 4u);
  EXPECT_EQ(collector.dropped(), 2u);
  // The *first* spans survive: a self-profile wants the session's
  // shape from the start.
  for (const auto& s : collector.snapshot()) EXPECT_LT(s.rank, 4);
}

// --- chrome export -----------------------------------------------------

/// Just enough JSON validation for the exporter: object/array nesting
/// balances outside strings, and strings close.  (Perfetto is the
/// real consumer; the scripts verify with python's json.loads.)
bool json_shape_ok(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : s) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

TEST(ChromeTrace, WriterEmitsParsableCompleteEvents) {
  telemetry::ChromeTraceWriter writer;
  writer.set_process_name(1, "app");
  writer.set_thread_name(1, 0, "rank 0");
  writer.add_complete(1, 0, "send \"x\"\\", 1500, 2750, "\"peer\":3");
  writer.add_instant(1, 0, "mark", 4000);
  const auto json = writer.str();
  EXPECT_TRUE(json_shape_ok(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // ns -> µs with sub-µs decimals: 1500ns = 1.500, 2750ns dur = 2.750.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.750"), std::string::npos);
  // The quote and backslash in the name must be escaped.
  EXPECT_NE(json.find("send \\\"x\\\"\\\\"), std::string::npos);
}

TEST(ChromeTrace, RecordedRunExportsAppEventsAndSelfSpans) {
  telemetry::SpanCollector::global().reset();
  dbg::Debugger debugger(2, [](mpi::Comm& comm) {
    apps::ring::Options opts;
    opts.laps = 1;
    apps::ring::rank_body(comm, opts);
  });
  debugger.record();
  debugger.order();  // forces a "debugger.analysis" span

  std::ostringstream os;
  const auto count = viz::write_chrome_trace(
      os, debugger.trace(), telemetry::SpanCollector::global().snapshot());
  const auto json = os.str();
  EXPECT_GT(count, 0u);
  EXPECT_TRUE(json_shape_ok(json));
  // App events on pid 1 with message args; self-spans on pid 2.
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"peer\":"), std::string::npos);
  EXPECT_NE(json.find("debugger.record"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"tdbg\""), std::string::npos);
}

// --- health monitor ----------------------------------------------------

TEST(HealthMonitor, FlagsARankThatStopsProgressing) {
  telemetry::HealthOptions options;
  options.interval = std::chrono::milliseconds(5);
  options.stall_after = std::chrono::milliseconds(20);
  // Rank 0 progresses every probe; rank 1 sits blocked at marker 7.
  std::atomic<std::uint64_t> moving{0};
  telemetry::HealthMonitor monitor(
      2,
      [&](int rank) {
        telemetry::HealthSample s;
        if (rank == 0) {
          s.state = telemetry::HealthSample::State::kRunning;
          s.marker = moving.fetch_add(1) + 1;
        } else {
          s.state = telemetry::HealthSample::State::kBlocked;
          s.marker = 7;
          s.detail = "recv <- rank 0";
        }
        return s;
      },
      options);
  monitor.start();
  // Deterministic wait: a stalled flag needs stall_after of no
  // progress; poll the snapshot instead of guessing tick counts.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool stalled = false;
  while (!stalled && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stalled = monitor.snapshot()[1].stalled;
  }
  monitor.stop();
  EXPECT_TRUE(stalled);
  EXPECT_FALSE(monitor.snapshot()[0].stalled);
  EXPECT_GE(monitor.ticks(), 2u);
  EXPECT_GE(monitor.series().rows(), 1u);

  const auto report = monitor.report();
  EXPECT_NE(report.find("STALLED"), std::string::npos);
  EXPECT_NE(report.find("recv <- rank 0"), std::string::npos);
  EXPECT_NE(report.find("rank 0: running"), std::string::npos);
}

TEST(HealthMonitor, StopIsIdempotentAndFinalSampleLands) {
  telemetry::HealthOptions options;
  options.interval = std::chrono::hours(1);  // never ticks on its own
  telemetry::HealthMonitor monitor(
      1,
      [](int) {
        telemetry::HealthSample s;
        s.state = telemetry::HealthSample::State::kRunning;
        return s;
      },
      options);
  monitor.start();
  monitor.stop();
  monitor.stop();
  EXPECT_EQ(monitor.ticks(), 1u);  // the final on-stop sample
}

// --- debugger integration ---------------------------------------------

mpi::RankBody ring_body() {
  return [](mpi::Comm& comm) {
    apps::ring::Options opts;
    opts.laps = 3;
    apps::ring::rank_body(comm, opts);
  };
}

TEST(TelemetryIntegration, ForcedHangDumpsFlightLogNamingTheHold) {
  dbg::Debugger debugger(4, ring_body());
  debugger.set_fault_plan(fault::FaultPlan::named("deadlock_ring", 42));
  const auto& result = debugger.record();
  ASSERT_TRUE(result.deadlocked);

  const auto diagnosis =
      fault::diagnose_hang(result, debugger.trace());
  ASSERT_TRUE(diagnosis.hung);
  // The black box explains the hang: the injected hold is in the
  // dumped tail, and so is the runtime's deadlock verdict.
  EXPECT_NE(diagnosis.flight_log.find("fault.hold"), std::string::npos)
      << diagnosis.flight_log;
  EXPECT_NE(diagnosis.flight_log.find("mpi.watchdog.deadlock"),
            std::string::npos);
  EXPECT_NE(diagnosis.describe().find("fault.hold"), std::string::npos);
}

TEST(TelemetryIntegration, RecordAttachesAStoppedHealthMonitor) {
  dbg::Debugger debugger(2, ring_body());
  debugger.record();
  const auto* health = debugger.health();
  ASSERT_NE(health, nullptr);
  EXPECT_GE(health->ticks(), 1u);
  const auto report = health->report();
  EXPECT_NE(report.find("rank 0"), std::string::npos);
  EXPECT_NE(report.find("rank 1"), std::string::npos);
}

TEST(TelemetryIntegration, HealthAndFlightrecCommands) {
  dbg::Debugger debugger(2, ring_body());
  dbg::CommandInterpreter interpreter(debugger);

  // Both commands answer before any recording.
  auto r = interpreter.execute("health");
  EXPECT_TRUE(r.ok);
  EXPECT_NE(r.output.find("no health heartbeat yet"), std::string::npos);
  r = interpreter.execute("flightrec");
  EXPECT_TRUE(r.ok);
  EXPECT_NE(r.output.find("flight recorder:"), std::string::npos);

  ASSERT_TRUE(interpreter.execute("record").ok);
  r = interpreter.execute("health");
  EXPECT_TRUE(r.ok);
  EXPECT_NE(r.output.find("heartbeat:"), std::string::npos);
  EXPECT_NE(r.output.find("rank 1"), std::string::npos);
  r = interpreter.execute("flightrec 4");
  EXPECT_TRUE(r.ok);
  r = interpreter.execute("help");
  EXPECT_NE(r.output.find("flightrec"), std::string::npos);
  EXPECT_NE(r.output.find("health"), std::string::npos);
}

TEST(TelemetryIntegration, MpiSlowPathEmitsMatchAndParkSpans) {
  telemetry::SpanCollector::global().reset();
  dbg::Debugger debugger(4, ring_body());
  debugger.record();
  bool saw_match = false;
  for (const auto& s : telemetry::SpanCollector::global().snapshot()) {
    if (telemetry::site_name(s.name) == "mpi.match") saw_match = true;
  }
  // A 4-rank ring always has a receiver waiting for the token, so the
  // match slow path must fire at least once.
  EXPECT_TRUE(saw_match);
}

}  // namespace
}  // namespace tdbg
