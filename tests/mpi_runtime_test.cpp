#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <numeric>
#include <thread>

#include "cpu_load.hpp"
#include "mpi/runtime.hpp"

namespace tdbg::mpi {
namespace {

TEST(Runtime, SingleRankRunsBody) {
  bool ran = false;
  const auto result = run(1, [&](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ran = true;
  });
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(ran);
}

TEST(Runtime, ThisRankIsBoundInsideBody) {
  EXPECT_EQ(this_rank(), -1);
  const auto result = run(3, [](Comm& comm) {
    EXPECT_EQ(this_rank(), comm.rank());
  });
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(this_rank(), -1);
}

TEST(Runtime, PingPong) {
  const auto result = run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(42, 1, 7);
      const int back = comm.recv_value<int>(1, 8);
      EXPECT_EQ(back, 43);
    } else {
      const int got = comm.recv_value<int>(0, 7);
      EXPECT_EQ(got, 42);
      comm.send_value<int>(got + 1, 0, 8);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Runtime, NonOvertakingSameTag) {
  // Two messages with the same tag from the same source must be
  // received in send order (MPI non-overtaking).
  const auto result = run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 100; ++i) comm.send_value<int>(i, 1, 5);
    } else {
      for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(comm.recv_value<int>(0, 5), i);
      }
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Runtime, TagSelectionSkipsEarlierNonMatching) {
  // A receive for tag B must match even when a tag-A message was sent
  // first and is still queued.
  const auto result = run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 1, /*tag=*/10);
      comm.send_value<int>(2, 1, /*tag=*/20);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 20), 2);
      EXPECT_EQ(comm.recv_value<int>(0, 10), 1);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Runtime, AnySourceReceivesFromEveryone) {
  constexpr int kRanks = 6;
  const auto result = run(kRanks, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<bool> seen(kRanks, false);
      for (int i = 1; i < kRanks; ++i) {
        Status st;
        const int payload = comm.recv_value<int>(kAnySource, 3, &st);
        EXPECT_EQ(payload, st.source * 100);
        EXPECT_FALSE(seen[static_cast<std::size_t>(st.source)]);
        seen[static_cast<std::size_t>(st.source)] = true;
      }
    } else {
      comm.send_value<int>(comm.rank() * 100, 0, 3);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Runtime, AnyTagReceivesActualTag) {
  const auto result = run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(5, 1, 17);
    } else {
      Status st;
      const int got = comm.recv_value<int>(0, kAnyTag, &st);
      EXPECT_EQ(got, 5);
      EXPECT_EQ(st.tag, 17);
      EXPECT_EQ(st.source, 0);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Runtime, StatusCarriesChannelSeq) {
  const auto result = run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 1, 4);
      comm.send_value<int>(2, 1, 4);
    } else {
      Status st;
      comm.recv_value<int>(0, 4, &st);
      EXPECT_EQ(st.channel_seq, 0u);
      comm.recv_value<int>(0, 4, &st);
      EXPECT_EQ(st.channel_seq, 1u);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Runtime, SsendBlocksUntilMatched) {
  std::atomic<bool> receiver_ready{false};
  const auto result = run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.ssend(std::span<const std::byte>(), 1, 9);
      // When ssend returns, the receive must have happened.
      EXPECT_TRUE(receiver_ready.load());
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      receiver_ready.store(true);
      std::vector<std::byte> buf;
      comm.recv(buf, 0, 9);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Runtime, ProbeReportsWithoutConsuming) {
  const auto result = run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<double>(2.5, 1, 11);
    } else {
      const Status st = comm.probe(0, 11);
      EXPECT_EQ(st.bytes, sizeof(double));
      EXPECT_EQ(comm.recv_value<double>(0, 11), 2.5);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Runtime, DeadlockIsDetectedAndUnwound) {
  // Ranks 0 and 1 both receive first: circular wait, no messages.
  const auto result = run(2, [](Comm& comm) {
    std::vector<std::byte> buf;
    comm.recv(buf, 1 - comm.rank(), 0);
    comm.send(std::span<const std::byte>(), 1 - comm.rank(), 0);
  });
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.deadlocked);
  ASSERT_EQ(result.final_waits.size(), 2u);
  EXPECT_EQ(result.final_waits[0].kind, WaitKind::kRecv);
  EXPECT_EQ(result.final_waits[0].peer, 1);
  EXPECT_EQ(result.final_waits[1].kind, WaitKind::kRecv);
  EXPECT_EQ(result.final_waits[1].peer, 0);
  EXPECT_NE(result.abort_detail.find("deadlock"), std::string::npos);
}

TEST(Runtime, SsendCycleIsDetectedAndUnwound) {
  // Both ranks ssend first: each waits for a receive the other never
  // posts.  The second to block declares the deadlock; the abort must
  // wake the first, asleep on its rendezvous.
  const auto result = run(2, [](Comm& comm) {
    comm.ssend(std::span<const std::byte>(), 1 - comm.rank(), 4);
    std::vector<std::byte> buf;
    comm.recv(buf, 1 - comm.rank(), 4);
  });
  EXPECT_TRUE(result.deadlocked);
  ASSERT_EQ(result.final_waits.size(), 2u);
  for (const auto& w : result.final_waits) {
    EXPECT_EQ(w.kind, WaitKind::kSsend) << "rank " << w.rank;
    EXPECT_EQ(w.peer, 1 - w.rank);
  }
  EXPECT_NE(result.abort_detail.find("blocked in ssend"), std::string::npos);
}

TEST(Runtime, RankFailurePropagates) {
  const auto result = run(2, [](Comm& comm) {
    if (comm.rank() == 1) throw std::runtime_error("boom");
    // Rank 0 blocks forever; the abort from rank 1 must unwind it.
    std::vector<std::byte> buf;
    comm.recv(buf, 1, 0);
  });
  EXPECT_FALSE(result.completed);
  EXPECT_FALSE(result.deadlocked);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].rank, 1);
  EXPECT_NE(result.failures[0].what.find("boom"), std::string::npos);
}

TEST(Collectives, BarrierSynchronizes) {
  constexpr int kRanks = 5;
  std::atomic<int> before{0};
  const auto result = run(kRanks, [&](Comm& comm) {
    before.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(before.load(), kRanks);
  });
  EXPECT_TRUE(result.completed);
}

TEST(Collectives, BcastFromEveryRoot) {
  constexpr int kRanks = 7;
  for (int root = 0; root < kRanks; ++root) {
    const auto result = run(kRanks, [root](Comm& comm) {
      std::vector<std::byte> data;
      if (comm.rank() == root) {
        data.resize(16, std::byte{static_cast<unsigned char>(root + 1)});
      }
      comm.bcast(data, root);
      ASSERT_EQ(data.size(), 16u);
      for (auto b : data) {
        EXPECT_EQ(b, std::byte{static_cast<unsigned char>(root + 1)});
      }
    });
    EXPECT_TRUE(result.completed) << "root=" << root;
  }
}

TEST(Collectives, ReduceSumsToRoot) {
  constexpr int kRanks = 6;
  for (int root = 0; root < kRanks; ++root) {
    const auto result = run(kRanks, [root](Comm& comm) {
      std::vector<std::byte> data(sizeof(int));
      int mine = comm.rank() + 1;
      std::memcpy(data.data(), &mine, sizeof mine);
      comm.reduce(data, root,
                  [](std::span<std::byte> acc, std::span<const std::byte> in) {
                    int a, b;
                    std::memcpy(&a, acc.data(), sizeof a);
                    std::memcpy(&b, in.data(), sizeof b);
                    a += b;
                    std::memcpy(acc.data(), &a, sizeof a);
                  });
      if (comm.rank() == root) {
        int total;
        std::memcpy(&total, data.data(), sizeof total);
        EXPECT_EQ(total, kRanks * (kRanks + 1) / 2);
      }
    });
    EXPECT_TRUE(result.completed) << "root=" << root;
  }
}

TEST(Collectives, AllreduceMax) {
  constexpr int kRanks = 8;
  const auto result = run(kRanks, [](Comm& comm) {
    const int maxed = comm.allreduce_value<int>(
        comm.rank() * 3, [](int a, int b) { return std::max(a, b); });
    EXPECT_EQ(maxed, (kRanks - 1) * 3);
  });
  EXPECT_TRUE(result.completed);
}

TEST(Collectives, GatherOrdersByRank) {
  constexpr int kRanks = 5;
  const auto result = run(kRanks, [](Comm& comm) {
    const int mine = comm.rank() * 7;
    auto parts = comm.gather(
        std::as_bytes(std::span<const int>(&mine, 1)), /*root=*/2);
    if (comm.rank() == 2) {
      ASSERT_EQ(parts.size(), static_cast<std::size_t>(kRanks));
      for (int r = 0; r < kRanks; ++r) {
        int value;
        ASSERT_EQ(parts[static_cast<std::size_t>(r)].size(), sizeof value);
        std::memcpy(&value, parts[static_cast<std::size_t>(r)].data(),
                    sizeof value);
        EXPECT_EQ(value, r * 7);
      }
    } else {
      EXPECT_TRUE(parts.empty());
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Collectives, ScatterDeliversPerRankParts) {
  constexpr int kRanks = 4;
  const auto result = run(kRanks, [](Comm& comm) {
    std::vector<std::vector<std::byte>> parts;
    if (comm.rank() == 0) {
      for (int r = 0; r < kRanks; ++r) {
        parts.push_back(std::vector<std::byte>(
            static_cast<std::size_t>(r + 1),
            std::byte{static_cast<unsigned char>(r)}));
      }
    }
    const auto mine = comm.scatter(parts, 0);
    EXPECT_EQ(mine.size(), static_cast<std::size_t>(comm.rank() + 1));
  });
  EXPECT_TRUE(result.completed);
}

/// Seven senders stream numbered messages to a wildcard receiver that
/// checks each source's sequence arrives in order.  The senders
/// outrun the receiver, so channels fill their rings and spill to the
/// overflow while the receiver drains.  Returns the first violation,
/// or an empty string.
std::string many_to_one_fifo_violation() {
  constexpr int kRanks = 8;
  constexpr int kPerRank = 200;
  std::string violation;
  const auto result = run(kRanks, [&](Comm& comm) {
    if (comm.rank() != 0) {
      for (int i = 0; i < kPerRank; ++i) comm.send_value<int>(i, 0, 1);
      return;
    }
    std::vector<int> next(kRanks, 0);
    for (int i = 0; i < (kRanks - 1) * kPerRank; ++i) {
      Status st;
      const int v = comm.recv_value<int>(kAnySource, 1, &st);
      int& expected = next[static_cast<std::size_t>(st.source)];
      if (v != expected && violation.empty()) {
        violation = "source " + std::to_string(st.source) + " delivered " +
                    std::to_string(v) + " before " + std::to_string(expected);
      }
      expected = v + 1;
    }
  });
  if (!result.completed) return "run did not complete: " + result.abort_detail;
  return violation;
}

TEST(Runtime, ManyToOneWildcardStress) {
  EXPECT_EQ(many_to_one_fifo_violation(), "");
}

TEST(Runtime, ChannelFifoSurvivesOverflowRefill) {
  // A single run hits the ring-refill-then-spill interleaving only
  // sometimes; 200 runs make an overtaking drain all but certain to
  // show.
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(many_to_one_fifo_violation(), "") << "run " << i;
  }
}

// --- The wait ledger, driven directly ------------------------------------

TEST(WaitLedger, RankWokenButNotYetRunIsNotIdle) {
  WaitRegistry ledger(2);
  EXPECT_FALSE(ledger.enter_wait(0, WaitKind::kRecv, 1, 5));
  // Rank 1 delivers to sleeping rank 0 and marks it running; rank 0's
  // thread has not run yet.
  ledger.wake(0, WaitKind::kRecv);
  EXPECT_EQ(ledger.kind(0), WaitKind::kNone);
  // Rank 1 now blocks: rank 0 still counts as running, so no verdict.
  EXPECT_FALSE(ledger.enter_wait(1, WaitKind::kRecv, 0, 6));
  const auto waits = ledger.snapshot();
  EXPECT_EQ(waits[0].kind, WaitKind::kNone);
  EXPECT_EQ(waits[1].kind, WaitKind::kRecv);
  EXPECT_EQ(waits[1].peer, 0);
  EXPECT_EQ(waits[1].tag, 6);
}

TEST(WaitLedger, OnlyTheLastWaiterDeclaresDeadlockOnce) {
  WaitRegistry ledger(3);
  EXPECT_FALSE(ledger.mark_finished(2));
  EXPECT_FALSE(ledger.enter_wait(0, WaitKind::kRecv, 1, 0));
  EXPECT_TRUE(ledger.enter_wait(1, WaitKind::kSsend, 0, 0));
  // A spurious wakeup and re-entry reaches the same state again, but
  // the verdict was already given.
  ledger.exit_wait(1);
  EXPECT_FALSE(ledger.enter_wait(1, WaitKind::kSsend, 0, 0));
  ledger.exit_wait(0);
  ledger.exit_wait(1);
  EXPECT_FALSE(ledger.mark_finished(0));
  EXPECT_FALSE(ledger.mark_finished(1));
}

TEST(WaitLedger, FinishThatStrandsAReceiverDeclaresDeadlock) {
  WaitRegistry ledger(2);
  EXPECT_FALSE(ledger.enter_wait(0, WaitKind::kRecv, 1, 0));
  EXPECT_TRUE(ledger.mark_finished(1));
}

TEST(WaitLedger, ParkedRankPreventsTheVerdict) {
  WaitRegistry ledger(2);
  ledger.park(0);
  EXPECT_FALSE(ledger.enter_wait(1, WaitKind::kRecv, 0, 0));
  // Quiescent (every rank idle), but the debugger may resume rank 0.
  const auto waits = ledger.await_quiescent();
  EXPECT_EQ(waits[0].kind, WaitKind::kParked);
  EXPECT_EQ(ledger.await_settled(0), WaitKind::kParked);
  EXPECT_EQ(ledger.await_settled(1), WaitKind::kRecv);
  // Resumed, rank 0 runs until it blocks too: now it is a deadlock.
  ledger.resume(0);
  EXPECT_EQ(ledger.kind(0), WaitKind::kNone);
  EXPECT_TRUE(ledger.enter_wait(0, WaitKind::kRecv, 1, 0));
}

TEST(WaitLedger, ExitWaitAfterProducerWakeIsNoop) {
  WaitRegistry ledger(2);
  EXPECT_FALSE(ledger.enter_wait(0, WaitKind::kRecv, 1, 0));
  ledger.wake(0, WaitKind::kRecv);
  ledger.exit_wait(0);  // the woken rank's own exit: nothing left to do
  EXPECT_EQ(ledger.kind(0), WaitKind::kNone);
  // A wake of the wrong kind leaves a wait alone.
  EXPECT_FALSE(ledger.enter_ssend(0, 1, 0, std::atomic<std::uint64_t>{0}, 1));
  ledger.wake(0, WaitKind::kRecv);
  EXPECT_EQ(ledger.kind(0), WaitKind::kSsend);
  ledger.wake(0, WaitKind::kSsend);
  ledger.exit_wait(0);
  // The counts stayed exact through the no-ops: rank 1 finishing with
  // rank 0 running is no verdict, rank 0 then blocking is.
  EXPECT_FALSE(ledger.mark_finished(1));
  EXPECT_TRUE(ledger.enter_wait(0, WaitKind::kRecv, 1, 0));
}

TEST(WaitLedger, SsendAlreadyMatchedDoesNotWait) {
  WaitRegistry ledger(2);
  const std::atomic<std::uint64_t> slot{3};
  EXPECT_FALSE(ledger.enter_ssend(0, 1, 0, slot, 3));
  EXPECT_EQ(ledger.kind(0), WaitKind::kNone);
  const std::atomic<bool> aborted{false};
  ledger.await_ssend(0, aborted);  // returns at once: never blocked
}

TEST(WaitLedger, SsendWaitsOutALateWake) {
  // A receiver stores an ssend's ticket before it wakes the sender, so
  // a sender that saw the ticket while spinning can already sit in its
  // next ssend when that wake lands.  A bare wake stands in for it: the
  // ssend must keep waiting for its own match, not unwind as if the
  // world had aborted (which ended the rank and stranded rank 0).
  std::shared_ptr<World> world;
  RunOptions options;
  options.on_world_ready = [&](std::shared_ptr<World> w) {
    world = std::move(w);
  };
  const auto result = run(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 1) {
          const int v = 7;
          comm.ssend(std::as_bytes(std::span<const int>(&v, 1)), 0, 1);
          comm.send_value<int>(8, 0, 2);
          return;
        }
        auto& ledger = world->shared().registry;
        while (ledger.kind(1) != WaitKind::kSsend) std::this_thread::yield();
        ledger.wake(1, WaitKind::kSsend);
        EXPECT_EQ(comm.recv_value<int>(1, 1), 7);
        EXPECT_EQ(comm.recv_value<int>(1, 2), 8);
      },
      options);
  EXPECT_TRUE(result.completed) << result.abort_detail;
}

// --- Oversubscription: woken ranks wait for a CPU ------------------------

/// Lowers the calling rank thread's priority below the busy threads'
/// (raising a thread's own nice value needs no privilege).
void deprioritize_this_thread() {
  ASSERT_EQ(setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), 10), 0);
}

TEST(Runtime, NoFalseDeadlockUnderOversubscription) {
  // Ranks and two busy threads share one CPU, and the ranks yield to
  // the busy threads, so a woken rank can wait many milliseconds
  // before it runs.  It must never count as idle meanwhile.
  test::PinToOneCpu pin;
  ASSERT_TRUE(pin.ok());
  test::Spinners spinners(2);
  const auto ping_pong = run(2, [](Comm& comm) {
    deprioritize_this_thread();
    const Rank peer = 1 - comm.rank();
    for (int round = 0; round < 2000; ++round) {
      if (comm.rank() == 0) {
        comm.send_value<int>(round, peer, 1);
        EXPECT_EQ(comm.recv_value<int>(peer, 2), round);
      } else {
        comm.send_value<int>(comm.recv_value<int>(peer, 1), peer, 2);
      }
    }
  });
  EXPECT_TRUE(ping_pong.completed) << ping_pong.abort_detail;
  const auto ring = run(4, [](Comm& comm) {
    deprioritize_this_thread();
    const Rank right = (comm.rank() + 1) % comm.size();
    const Rank left = (comm.rank() + comm.size() - 1) % comm.size();
    for (int lap = 0; lap < 200; ++lap) {
      if (comm.rank() == 0) {
        comm.send_value<int>(lap, right, 3);
        EXPECT_EQ(comm.recv_value<int>(left, 3), lap + comm.size() - 1);
      } else {
        comm.send_value<int>(comm.recv_value<int>(left, 3) + 1, right, 3);
      }
    }
  });
  EXPECT_TRUE(ring.completed) << ring.abort_detail;
}

}  // namespace
}  // namespace tdbg::mpi
