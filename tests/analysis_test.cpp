#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "analysis/deadlock.hpp"
#include "analysis/races.hpp"
#include "analysis/session.hpp"
#include "analysis/supervision.hpp"
#include "analysis/traffic.hpp"
#include "apps/strassen.hpp"
#include "apps/taskfarm.hpp"
#include "mpi/runtime.hpp"
#include "replay/record.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"

namespace tdbg::analysis {
namespace {

mpi::WaitInfo wait(mpi::Rank rank, mpi::WaitKind kind,
                   mpi::Rank peer = mpi::kAnySource,
                   mpi::Tag tag = mpi::kAnyTag) {
  return mpi::WaitInfo{rank, kind, peer, tag};
}

TEST(DeadlockTest, TwoRankCycle) {
  const std::vector<mpi::WaitInfo> waits = {
      wait(0, mpi::WaitKind::kRecv, 1),
      wait(1, mpi::WaitKind::kRecv, 0),
  };
  const auto report = explain_deadlock(waits);
  EXPECT_TRUE(report.deadlocked);
  ASSERT_EQ(report.cycle.size(), 2u);
  EXPECT_NE(report.description.find("circular wait"), std::string::npos);
}

TEST(DeadlockTest, ThreeRankRing) {
  const std::vector<mpi::WaitInfo> waits = {
      wait(0, mpi::WaitKind::kRecv, 2),
      wait(1, mpi::WaitKind::kRecv, 0),
      wait(2, mpi::WaitKind::kRecv, 1),
  };
  const auto report = explain_deadlock(waits);
  EXPECT_TRUE(report.deadlocked);
  EXPECT_EQ(report.cycle.size(), 3u);
}

TEST(DeadlockTest, StarvationOnFinishedRank) {
  const std::vector<mpi::WaitInfo> waits = {
      wait(0, mpi::WaitKind::kRecv, 1),
      wait(1, mpi::WaitKind::kFinished),
  };
  const auto report = explain_deadlock(waits);
  EXPECT_TRUE(report.deadlocked);
  EXPECT_TRUE(report.cycle.empty());
  ASSERT_EQ(report.starved.size(), 1u);
  EXPECT_EQ(report.starved[0], 0);
}

TEST(DeadlockTest, NoDeadlockWhenSomeoneRuns) {
  const std::vector<mpi::WaitInfo> waits = {
      wait(0, mpi::WaitKind::kRecv, 1),
      wait(1, mpi::WaitKind::kNone),
  };
  const auto report = explain_deadlock(waits);
  EXPECT_FALSE(report.deadlocked);
}

TEST(DeadlockTest, SsendCycleDetected) {
  const std::vector<mpi::WaitInfo> waits = {
      wait(0, mpi::WaitKind::kSsend, 1),
      wait(1, mpi::WaitKind::kSsend, 0),
  };
  const auto report = explain_deadlock(waits);
  EXPECT_TRUE(report.deadlocked);
  EXPECT_EQ(report.cycle.size(), 2u);
}

TEST(DeadlockTest, BuggyStrassenExplained) {
  apps::strassen::Options opts;
  opts.n = 16;
  opts.cutoff = 8;
  opts.buggy = true;
  const auto result = mpi::run(
      8, [&](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
  ASSERT_TRUE(result.deadlocked);
  const auto report = explain_deadlock(result.final_waits);
  EXPECT_TRUE(report.deadlocked);
  // The 0 <-> 7 circular wait of Figure 5.
  ASSERT_EQ(report.cycle.size(), 2u);
  const bool zero_seven =
      (report.cycle[0] == 0 && report.cycle[1] == 7) ||
      (report.cycle[0] == 7 && report.cycle[1] == 0);
  EXPECT_TRUE(zero_seven) << report.description;
}

TEST(SupervisionTest, TracksOutstandingSendsLive) {
  LiveSupervisor supervisor(2);
  mpi::RunOptions options;
  options.hooks = &supervisor;
  const auto result = mpi::run(2, [&](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 1, 1);  // will be received
      comm.send_value<int>(2, 1, 9);  // never received
      // While rank 1 sleeps, both sends are outstanding.
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      EXPECT_GE(supervisor.outstanding().size(), 1u);
      comm.recv_value<int>(0, 1);
    }
  }, options);
  ASSERT_TRUE(result.completed);
  const auto leftovers = supervisor.outstanding();
  ASSERT_EQ(leftovers.size(), 1u);
  EXPECT_EQ(leftovers[0].tag, 9);
  EXPECT_EQ(supervisor.total_sends(), 2u);
  EXPECT_EQ(supervisor.total_recvs(), 1u);
  EXPECT_EQ(supervisor.orphan_recvs(), 0u);
}

TEST(RaceTest, DeterministicProgramHasNoRaces) {
  apps::strassen::Options opts;
  opts.n = 16;
  opts.cutoff = 8;
  const auto rec = replay::record(
      4, [&](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);
  const auto& report = session.races();
  EXPECT_FALSE(report.racy());
}

TEST(RaceTest, ConcurrentSendersToWildcardAreRacy) {
  // Two senders race to one ANY_SOURCE receive.
  const auto rec = replay::record(3, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.recv_value<int>(mpi::kAnySource, 1);
      comm.recv_value<int>(mpi::kAnySource, 1);
    } else {
      comm.send_value<int>(comm.rank(), 0, 1);
    }
  });
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);
  const auto& report = session.races();
  ASSERT_TRUE(report.racy());
  // Both receives race (each had the other sender as a candidate).
  EXPECT_GE(report.races.size(), 1u);
  for (const auto& race : report.races) {
    EXPECT_FALSE(race.candidates.empty());
  }
}

TEST(RaceTest, CausallyOrderedWildcardIsNotRacy) {
  // The second send only happens after the first is received and
  // acknowledged: no race despite ANY_SOURCE.
  const auto rec = replay::record(3, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      mpi::Status st;
      comm.recv_value<int>(mpi::kAnySource, 1, &st);
      comm.send_value<int>(0, 2, 2);  // ack triggers rank 2's send
      comm.recv_value<int>(mpi::kAnySource, 1);
    } else if (comm.rank() == 1) {
      comm.send_value<int>(1, 0, 1);
    } else {
      comm.recv_value<int>(0, 2);  // wait for ack
      comm.send_value<int>(2, 0, 1);
    }
  });
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);
  const auto& report = session.races();
  EXPECT_FALSE(report.racy());
}

TEST(RaceTest, TaskFarmIsRacyWithManyWorkers) {
  apps::taskfarm::Options opts;
  opts.num_tasks = 12;
  const auto rec = replay::record(
      4, [&](mpi::Comm& comm) { apps::taskfarm::rank_body(comm, opts); });
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);
  EXPECT_TRUE(session.races().racy());
}

// --- indexed race search == the linear scan it replaced --------------------

/// The pre-index race search, kept as the oracle: every send is tested
/// against every matched wildcard receive, candidates in display order.
RaceReport linear_scan_races(const SweepData& sweep,
                             const causality::CausalOrder& order) {
  const auto& index = order.index();
  std::vector<SweepSend> sends;
  std::vector<SweepRecv> wildcard_recvs;
  for (const auto& [key, ch] : sweep.channels) {
    sends.insert(sends.end(), ch.sends.begin(), ch.sends.end());
    for (const auto& r : ch.recvs) {
      if (r.wildcard) wildcard_recvs.push_back(r);
    }
  }
  const auto by_index = [](const auto& a, const auto& b) {
    return a.index < b.index;
  };
  std::sort(sends.begin(), sends.end(), by_index);
  std::sort(wildcard_recvs.begin(), wildcard_recvs.end(), by_index);

  RaceReport report;
  for (const auto& recv : wildcard_recvs) {
    const std::size_t r = recv.index;
    const std::size_t matched = index.send_of[r];
    if (matched == trace::kNoEvent) continue;
    MessageRace race;
    race.recv_index = r;
    race.matched_send = matched;
    for (const auto& send : sends) {
      const std::size_t s = send.index;
      if (s == matched || send.peer != recv.rank || send.tag != recv.tag) {
        continue;
      }
      if (order.happens_before(r, s)) continue;
      const std::size_t consumed = index.recv_of[s];
      if (consumed != trace::kNoEvent && order.happens_before(consumed, r)) {
        continue;
      }
      if (send.rank == index.rank[matched] &&
          order.happens_before(s, matched)) {
        continue;
      }
      race.candidates.push_back(s);
    }
    if (!race.candidates.empty()) report.races.push_back(std::move(race));
  }
  return report;
}

/// A hand-built history on `ranks` ranks and three tags.  Receives
/// consume a *random* pending message of the chosen channel (optionally
/// restricted to one tag), so tag-selective receives consume out of
/// send order, even within one (source, tag); some sends are never
/// consumed; sends after a receive on the same rank are causally after
/// it.  With `jitter`, start times wobble so a rank's display order
/// differs from its marker (program) order.
std::vector<trace::Event> tangled_history(std::size_t n, int ranks,
                                          std::uint64_t seed, bool jitter) {
  auto rng = support::SplitMix64(seed).split(3);
  const auto nr = static_cast<std::uint64_t>(ranks);
  std::vector<trace::Event> events;
  std::vector<std::uint64_t> next_marker(nr, 1);
  struct Pending {
    std::uint64_t seq;
    mpi::Tag tag;
  };
  // Per (src, dst): sends issued so far, and the ones not yet consumed.
  std::map<std::pair<int, int>, std::uint64_t> issued;
  std::map<std::pair<int, int>, std::vector<Pending>> pending;
  for (std::size_t i = 0; i < n; ++i) {
    trace::Event e;
    const int rank = static_cast<int>(rng.next_below(nr));
    e.rank = rank;
    e.marker = next_marker[static_cast<std::size_t>(rank)]++;
    e.t_start = static_cast<support::TimeNs>(i) * 10 +
                (jitter ? static_cast<support::TimeNs>(rng.next_below(400))
                        : 0);
    e.t_end = e.t_start + 6;
    e.kind = trace::EventKind::kCompute;
    const auto roll = rng.next_below(8);
    if (roll < 3) {
      const int dest = static_cast<int>(
          (static_cast<std::uint64_t>(rank) + 1 + rng.next_below(nr - 1)) %
          nr);
      e.kind = trace::EventKind::kSend;
      e.peer = dest;
      e.tag = static_cast<mpi::Tag>(rng.next_below(3));
      e.bytes = 8;
      auto& seq = issued[{rank, dest}];
      pending[{rank, dest}].push_back(Pending{seq++, e.tag});
    } else if (roll < 5) {
      const int src = static_cast<int>(rng.next_below(nr));
      auto& box = pending[{src, rank}];
      const bool by_tag = rng.next_below(2) == 0;
      const auto tag = static_cast<mpi::Tag>(rng.next_below(3));
      std::vector<std::size_t> eligible;
      for (std::size_t k = 0; k < box.size(); ++k) {
        if (!by_tag || box[k].tag == tag) eligible.push_back(k);
      }
      if (src != rank && !eligible.empty()) {
        const std::size_t k = eligible[rng.next_below(eligible.size())];
        e.kind = trace::EventKind::kRecv;
        e.peer = src;
        e.tag = box[k].tag;
        e.channel_seq = static_cast<mpi::ChannelSeq>(box[k].seq);
        e.bytes = 8;
        e.wildcard = rng.next_below(3) != 0;
        box.erase(box.begin() + static_cast<std::ptrdiff_t>(k));
      }
    }
    events.push_back(e);
  }
  return events;
}

void expect_races_equal(const RaceReport& got, const RaceReport& want) {
  ASSERT_EQ(got.races.size(), want.races.size());
  for (std::size_t i = 0; i < want.races.size(); ++i) {
    EXPECT_EQ(got.races[i].recv_index, want.races[i].recv_index) << i;
    EXPECT_EQ(got.races[i].matched_send, want.races[i].matched_send) << i;
    EXPECT_EQ(got.races[i].candidates, want.races[i].candidates) << i;
  }
}

TEST(RaceTest, IndexedSearchEqualsLinearScanAt1And4Threads) {
  std::size_t races = 0;
  std::size_t candidates = 0;
  for (const bool jitter : {false, true}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      const trace::Trace trace(6, tangled_history(3000, 6, seed, jitter),
                               nullptr);
      for (const std::size_t threads : {1u, 4u}) {
        exec::ScopedExecutor pool(threads);
        analysis::Session session(trace);
        const auto want =
            linear_scan_races(session.sweep(), session.causal_order());
        SCOPED_TRACE(testing::Message() << "seed " << seed << " jitter "
                                        << jitter << " threads " << threads);
        expect_races_equal(session.races(), want);
        races += want.races.size();
        for (const auto& r : want.races) candidates += r.candidates.size();
      }
    }
  }
  // The histories must exercise the search, not compare empty lists.
  EXPECT_GT(races, 100u);
  EXPECT_GT(candidates, races);
}

TEST(TrafficTest, CountsChannelsAndBytes) {
  const auto rec = replay::record(3, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<double>(1.0, 1, 1);
      comm.send_value<double>(2.0, 2, 1);
      comm.send_value<double>(3.0, 2, 1);
    } else {
      const int n = comm.rank() == 1 ? 1 : 2;
      for (int i = 0; i < n; ++i) comm.recv_value<double>(0, 1);
    }
  });
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);
  const auto& report = session.traffic();
  ASSERT_EQ(report.channels.size(), 2u);
  EXPECT_EQ(report.ranks[0].sends, 3u);
  EXPECT_EQ(report.ranks[0].bytes_out, 3 * sizeof(double));
  EXPECT_EQ(report.ranks[2].recvs, 2u);
  for (const auto& ch : report.channels) {
    EXPECT_GT(ch.mean_latency, 0.0);
    EXPECT_LE(ch.min_latency, ch.max_latency);
  }
}

TEST(TrafficTest, BuggyStrassenIrregularities) {
  apps::strassen::Options opts;
  opts.n = 16;
  opts.cutoff = 8;
  opts.buggy = true;
  const auto rec = replay::record(
      8, [&](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
  ASSERT_TRUE(rec.result.deadlocked);
  analysis::Session session(rec.trace);
  const auto& report = session.traffic();

  bool missed = false;
  bool outlier7 = false;
  for (const auto& irr : report.irregularities) {
    if (irr.kind == Irregularity::Kind::kUnmatchedSend) missed = true;
    if (irr.kind == Irregularity::Kind::kRecvCountOutlier && irr.rank == 7) {
      outlier7 = true;
    }
  }
  // Fig. 6's two observations: the missed message, and rank 7
  // receiving fewer messages than its peers.
  EXPECT_TRUE(missed);
  EXPECT_TRUE(outlier7);
  EXPECT_NE(report.to_string().find("missed message"), std::string::npos);
}

TEST(TrafficTest, CleanRunHasNoIrregularities) {
  apps::strassen::Options opts;
  opts.n = 16;
  opts.cutoff = 8;
  const auto rec = replay::record(
      8, [&](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);
  const auto& report = session.traffic();
  EXPECT_TRUE(report.irregularities.empty())
      << report.to_string();
}

}  // namespace
}  // namespace tdbg::analysis
