#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <vector>

#include "mpi/types.hpp"

namespace tdbg::mpi {

/// What a rank is currently doing, as far as the run's progress goes.
enum class WaitKind : std::uint8_t {
  kNone,      ///< running
  kRecv,      ///< blocked in a receive
  kSsend,     ///< blocked in a synchronous send awaiting its match
  kParked,    ///< stopped at a breakpoint until the debugger resumes it
  kFinished,  ///< rank body returned; will never send again
};

/// One rank's wait state.  `peer`/`tag` describe what it is waiting
/// for (requested source and tag for receives, destination for
/// ssends); wildcards appear as `kAnySource`/`kAnyTag`.
struct WaitInfo {
  Rank rank = 0;
  WaitKind kind = WaitKind::kNone;
  Rank peer = kAnySource;
  Tag tag = kAnyTag;
};

/// The ledger of rank states: running, blocked (recv/ssend), parked
/// at a breakpoint, or finished.
///
/// One rule makes "every rank idle" an exact statement rather than a
/// guess: **the thread that makes a rank runnable marks it running
/// here, under the ledger lock, before waking it** — a delivering
/// sender (`wake(owner, kRecv)`), the receive that completes an ssend
/// rendezvous (`wake(sender, kSsend)`), or the debugger resuming a
/// parked rank (`resume`).  A rank that has been woken but not yet
/// scheduled therefore already counts as running, and the rank's own
/// later `exit_wait` is a no-op.
///
/// Consequences:
///  - deadlock is decided by the transition itself: the wait or finish
///    that leaves every rank idle, with at least one blocked and none
///    parked, returns true (once per run), and its caller declares the
///    deadlock;
///  - the replay driver waits on the ledger's condition variable for
///    quiescence instead of polling;
///  - blocked ssend senders and parked ranks sleep on the same
///    condition variable.
///
/// The final snapshot explains *who* was waiting on *whom* — the
/// information behind Figure 5 ("processes 0 and 7 are blocked in
/// receives waiting for data from each other").
class WaitRegistry {
 public:
  explicit WaitRegistry(int world_size);

  // --- transitions made by the rank itself --------------------------

  /// Marks `rank` blocked in a receive or ssend; called immediately
  /// before it sleeps, under the lock its waker takes before `wake`.
  /// Returns true when this transition leaves the world deadlocked;
  /// the caller must then declare the deadlock (after releasing any
  /// mailbox lock) instead of sleeping.
  bool enter_wait(Rank rank, WaitKind kind, Rank peer, Tag tag);

  /// Marks `rank` running after its wait returns.  A no-op when its
  /// waker already did so.
  void exit_wait(Rank rank);

  /// `enter_wait(rank, kSsend, dest, tag)` unless `slot` already holds
  /// `ticket` (the receiver stores it before its `wake`, which takes
  /// the same lock).  Returns the deadlock verdict.
  bool enter_ssend(Rank rank, Rank dest, Tag tag,
                   const std::atomic<std::uint64_t>& slot,
                   std::uint64_t ticket);

  /// Sleeps while `rank` is blocked in an ssend, until `wake(rank,
  /// kSsend)` or an `interrupt` with `aborted` set.
  void await_ssend(Rank rank, const std::atomic<bool>& aborted);

  /// Marks `rank` parked at a breakpoint.  A parked rank is idle but
  /// never part of a deadlock verdict: the debugger may resume it.
  void park(Rank rank);

  /// Sleeps until `resume` (or `resume_all`) releases a parked `rank`.
  void await_resume(Rank rank);

  /// Marks `rank` finished for the rest of the run.  Returns true when
  /// this leaves the world deadlocked (see `enter_wait`).
  bool mark_finished(Rank rank);

  // --- transitions made by the rank's waker -------------------------

  /// Marks `rank` running if it is in state `from`.  Senders call
  /// this for a sleeping receiver (`kRecv`), receivers for the sender
  /// of a matched ssend (`kSsend`, which also wakes it).
  void wake(Rank rank, WaitKind from);

  /// Releases `rank` if it is parked.
  void resume(Rank rank);

  /// Releases every parked rank.
  void resume_all();

  /// Wakes every ssend sleeper so it can observe an abort.
  void interrupt();

  // --- observers ----------------------------------------------------

  /// Blocks until every rank is parked, blocked or finished; returns
  /// the states at that moment.
  [[nodiscard]] std::vector<WaitInfo> await_quiescent() const;

  /// Blocks until `rank` is parked or finished, or every rank is idle
  /// (it is then blocked on a parked rank); returns its state.
  [[nodiscard]] WaitKind await_settled(Rank rank) const;

  /// Current state of one rank.
  [[nodiscard]] WaitKind kind(Rank rank) const;

  /// Copy of the current per-rank wait states.
  [[nodiscard]] std::vector<WaitInfo> snapshot() const;

 private:
  /// Moves `s` to `kind`, keeping the counters, and notifies observers
  /// the move may concern.  Returns the deadlock verdict.
  bool set_locked(WaitInfo& s, WaitKind kind);
  bool enter_locked(Rank rank, WaitKind kind, Rank peer, Tag tag);

  WaitInfo& at(Rank rank) { return states_.at(static_cast<std::size_t>(rank)); }
  [[nodiscard]] bool quiescent_locked() const {
    return idle_ == static_cast<int>(states_.size());
  }

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::vector<WaitInfo> states_;
  int idle_ = 0;     ///< ranks not running
  int blocked_ = 0;  ///< ranks in kRecv or kSsend
  int parked_ = 0;   ///< ranks in kParked
  bool deadlock_declared_ = false;
};

}  // namespace tdbg::mpi
