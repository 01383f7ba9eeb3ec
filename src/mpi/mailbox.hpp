#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "mpi/match_controller.hpp"
#include "mpi/message.hpp"
#include "mpi/types.hpp"
#include "mpi/wait_registry.hpp"

namespace tdbg::mpi {

/// Thrown in a blocked rank when the run is aborted (deadlock, or
/// another rank failed).  The runtime catches it at the top of the
/// rank body; application code should not.
class Aborted : public std::exception {
 public:
  const char* what() const noexcept override { return "tdbg::mpi run aborted"; }
};

/// One rank's ssend rendezvous slot: receivers store the sender's
/// rendezvous ticket here when they match a synchronous message, then
/// wake the sender through the wait registry.  The slot outlives any
/// individual ssend (it is owned by the world), so the sender needs no
/// heap-allocated completion handle.  Padded so neighbouring ranks'
/// slots don't share a cache line.
struct alignas(64) SsendSlot {
  std::atomic<std::uint64_t> done_seq{0};
};

/// Shared world state the mailboxes need: abort flag, wait registry,
/// ssend rendezvous slots, and the deadlock handler.  Owned by the
/// world.
struct MailboxShared {
  explicit MailboxShared(int world_size)
      : registry(world_size),
        ssend_slots(static_cast<std::size_t>(world_size)) {}

  std::atomic<bool> aborted{false};
  WaitRegistry registry;
  std::vector<SsendSlot> ssend_slots;  ///< indexed by *sender* rank

  /// Aborts the run as deadlocked; called by whichever rank's
  /// transition the registry reports as the deadlock verdict.
  std::function<void()> declare_deadlock;
};

/// Per-rank incoming-message store implementing MPI matching rules.
///
/// Transport is one SPSC channel per source rank: a bounded lock-free
/// ring for the fast path with a mutex-protected overflow deque behind
/// it, so eager sends never block (the alltoall send phase relies on
/// that, and so does the deadlock verdict: a message is never in
/// flight outside a mailbox).  The owning rank drains
/// channels into private per-channel `pending` deques — the only place
/// matching and removal happen — guided by an atomic dirty-channel
/// bitmask so a drain touches only channels with new traffic.
///
/// Matching semantics are unchanged from the locked design: a receive
/// posted with a specific source matches the earliest message from
/// that source with a compatible tag (the MPI non-overtaking rule the
/// paper relies on to uniquely match send and receive arcs, §3.2); a
/// wildcard-source receive matches, among the first tag-compatible
/// message of each channel, the one with the earliest arrival stamp —
/// unless a `MatchController` forces a specific (source, seq), which
/// is how replay pins down wildcard nondeterminism (§4.2).  Arrival
/// stamps are assigned when the owner drains a message (drain order =
/// observation order); the match log records whichever choice results,
/// so record→replay equivalence is unaffected.
///
/// Blocking uses a park/notify protocol instead of holding a lock:
/// the receiver publishes a sleeper count (seq_cst), re-drains, and
/// only then enters its wait in the registry and sleeps on the
/// condition variable; senders push, fence, and — only when a sleeper
/// is visible — mark the owner running in the registry under the
/// park lock before notifying.  Either the receiver's re-drain sees
/// the push or the sender sees the sleeper — a lost wakeup would
/// require both seq_cst orderings to fail.
class Mailbox {
 public:
  Mailbox(Rank owner, int world_size, MailboxShared* shared);

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueues a message (called from the sender's thread; one sender
  /// thread per source rank).  Assigns the per-channel sequence
  /// number.  Never blocks.
  void deliver(Message msg);

  /// Blocks until a message matching (source, tag) — or the
  /// controller-forced message — is available, removes it, and copies
  /// its payload into `out`.  Owner thread only.  Throws `Aborted` if
  /// the run aborts while waiting and `tdbg::Error` on replay
  /// divergence.
  Status receive(Rank source, Tag tag, std::vector<std::byte>& out,
                 MatchController* controller, std::uint64_t recv_index);

  /// Blocks until a matching message is available; returns its status
  /// without removing it.  Owner thread only.
  Status probe(Rank source, Tag tag);

  /// Non-blocking probe.  Owner thread only.
  std::optional<Status> iprobe(Rank source, Tag tag);

  /// Wakes any thread blocked in this mailbox (used on abort).
  void notify_abort();

  /// Number of queued (undelivered-to-app) messages; used by tests and
  /// the traffic analyzer.  With `user_only`, messages on internal
  /// (collective) tags are excluded — a rank that raced ahead into a
  /// collective must not count as traffic for quiescence checks.
  /// Callable from any thread (reads atomic counters).
  [[nodiscard]] std::size_t queued_count(bool user_only = false) const;

  /// Ring capacity per channel; beyond this, deliveries spill to the
  /// overflow deque (still non-blocking, just slower).
  static constexpr std::size_t kRingCapacity = 32;

 private:
  /// Cached result of the last first-compatible scan of a pending
  /// deque, so repeated wakeups with the same posted tag don't re-walk
  /// the queue (satellite of PR 2; see DESIGN.md "Hot paths").
  struct MatchCache {
    bool valid = false;
    Tag tag = kAnyTag;
    std::size_t index = 0;  ///< kNoMatch when no compatible message
  };
  static constexpr std::size_t kNoMatch = ~std::size_t{0};

  struct Channel {
    // --- SPSC transport: producer = source rank's thread ------------
    alignas(64) std::atomic<std::uint64_t> tail{0};  ///< producer cursor
    alignas(64) std::atomic<std::uint64_t> head{0};  ///< consumer cursor
    std::array<Message, kRingCapacity> ring;

    std::mutex overflow_mu;
    std::deque<Message> overflow;
    std::atomic<std::uint32_t> overflow_count{0};

    /// Producer-only: seq to assign to the next delivery.
    ChannelSeq next_seq = 0;

    // --- Consumer-private (owner thread only) -----------------------
    std::deque<Message> pending;  ///< drained, matchable messages
    MatchCache cache;
  };

  struct Pick {
    Rank source;
    std::size_t index;  ///< position within the channel's pending deque
  };

  /// Moves every message out of dirty channels' rings/overflows into
  /// the pending deques, stamping arrival order.  Owner thread only.
  void drain_transport();
  void drain_channel(Channel& ch);

  /// Finds the message the posted receive should match right now, or
  /// nullopt if it must keep waiting.  Owner thread only (operates on
  /// pending deques).
  std::optional<Pick> try_match(Rank source, Tag tag,
                                MatchController* controller,
                                std::uint64_t recv_index);

  /// First tag-compatible message in `channel.pending`, or kNoMatch;
  /// memoized in `channel.cache`.
  std::size_t first_match(Channel& channel, Tag tag);

  /// Removes the picked message and completes the receive (payload,
  /// metrics, counters, rendezvous signal).
  Status consume(const Pick& pick, std::vector<std::byte>& out);

  /// Bounded busy-wait for new transport traffic; true if any arrived.
  bool spin_for_traffic() const;

  /// Enters the registry wait and sleeps until a delivery or abort
  /// (or declares the deadlock this wait completes).  `lk` holds
  /// `park_mu_` with the sleeper count published and nothing matched.
  void sleep(std::unique_lock<std::mutex>& lk, Rank source, Tag tag);

  const Message& picked(const Pick& pick) const;

  void check_aborted() const;

  Rank owner_;
  MailboxShared* shared_;
  std::vector<std::unique_ptr<Channel>> channels_;  ///< indexed by source

  /// Bitmask of channels with undrained transport traffic.  Producers
  /// set their bit after pushing; the owner exchanges it to zero
  /// before draining.  Worlds larger than 64 ranks share bits
  /// (source % 64), which only widens the drain, never skips one.
  std::atomic<std::uint64_t> dirty_{0};

  /// Bitmask of channels with non-empty pending deques (owner-private)
  /// so wildcard matching scans only active channels.
  std::uint64_t pending_mask_ = 0;

  std::uint64_t arrivals_ = 0;  ///< owner-side arrival stamp counter

  /// Delivered-but-not-received counts, readable from any thread.
  std::atomic<std::size_t> queued_total_{0};
  std::atomic<std::size_t> queued_user_{0};

  // Park/notify state (see class comment).
  std::mutex park_mu_;
  std::condition_variable cv_;
  std::atomic<int> sleepers_{0};

  [[nodiscard]] std::uint64_t bit_of(Rank source) const {
    return std::uint64_t{1} << (static_cast<unsigned>(source) % 64u);
  }
};

}  // namespace tdbg::mpi
