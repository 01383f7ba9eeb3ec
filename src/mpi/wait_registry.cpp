#include "mpi/wait_registry.hpp"

#include "support/error.hpp"

namespace tdbg::mpi {

namespace {

bool is_blocked(WaitKind kind) {
  return kind == WaitKind::kRecv || kind == WaitKind::kSsend;
}

}  // namespace

WaitRegistry::WaitRegistry(int world_size) : states_(world_size) {
  for (int r = 0; r < world_size; ++r) {
    states_[r].rank = r;
  }
}

bool WaitRegistry::set_locked(WaitInfo& s, WaitKind kind) {
  const WaitKind from = s.kind;
  idle_ += (kind != WaitKind::kNone) - (from != WaitKind::kNone);
  blocked_ += is_blocked(kind) - is_blocked(from);
  parked_ += (kind == WaitKind::kParked) - (from == WaitKind::kParked);
  s.kind = kind;
  if (kind == WaitKind::kNone) {
    s.peer = kAnySource;
    s.tag = kAnyTag;
  }
  // Sleepers on cv_: ssend senders and parked ranks (woken by leaving
  // their state), the replay driver (a rank parked or finished, or the
  // world quiescent).  Receive waits and exits on their own concern
  // nobody here, and they are the hot transitions.
  const bool quiescent = quiescent_locked();
  if (quiescent || from == WaitKind::kSsend || from == WaitKind::kParked ||
      kind == WaitKind::kParked || kind == WaitKind::kFinished) {
    cv_.notify_all();
  }
  if (quiescent && blocked_ > 0 && parked_ == 0 && !deadlock_declared_) {
    deadlock_declared_ = true;
    return true;
  }
  return false;
}

bool WaitRegistry::enter_locked(Rank rank, WaitKind kind, Rank peer,
                                Tag tag) {
  TDBG_CHECK(is_blocked(kind), "enter_wait needs a recv or ssend wait");
  auto& s = at(rank);
  TDBG_CHECK(s.kind == WaitKind::kNone, "rank entered wait twice");
  s.peer = peer;
  s.tag = tag;
  return set_locked(s, kind);
}

bool WaitRegistry::enter_wait(Rank rank, WaitKind kind, Rank peer, Tag tag) {
  std::lock_guard lk(mu_);
  return enter_locked(rank, kind, peer, tag);
}

void WaitRegistry::exit_wait(Rank rank) {
  std::lock_guard lk(mu_);
  auto& s = at(rank);
  TDBG_CHECK(s.kind != WaitKind::kParked && s.kind != WaitKind::kFinished,
             "rank exited a wait it never entered");
  if (s.kind != WaitKind::kNone) set_locked(s, WaitKind::kNone);
}

bool WaitRegistry::enter_ssend(Rank rank, Rank dest, Tag tag,
                               const std::atomic<std::uint64_t>& slot,
                               std::uint64_t ticket) {
  std::lock_guard lk(mu_);
  if (slot.load(std::memory_order_acquire) >= ticket) return false;
  return enter_locked(rank, WaitKind::kSsend, dest, tag);
}

void WaitRegistry::await_ssend(Rank rank, const std::atomic<bool>& aborted) {
  std::unique_lock lk(mu_);
  const auto& s = at(rank);
  cv_.wait(lk, [&] {
    return s.kind != WaitKind::kSsend ||
           aborted.load(std::memory_order_acquire);
  });
}

void WaitRegistry::park(Rank rank) {
  std::lock_guard lk(mu_);
  auto& s = at(rank);
  TDBG_CHECK(s.kind == WaitKind::kNone, "only a running rank can park");
  set_locked(s, WaitKind::kParked);
}

void WaitRegistry::await_resume(Rank rank) {
  std::unique_lock lk(mu_);
  const auto& s = at(rank);
  cv_.wait(lk, [&] { return s.kind != WaitKind::kParked; });
}

bool WaitRegistry::mark_finished(Rank rank) {
  std::lock_guard lk(mu_);
  auto& s = at(rank);
  TDBG_CHECK(s.kind == WaitKind::kNone, "finished rank was still waiting");
  return set_locked(s, WaitKind::kFinished);
}

void WaitRegistry::wake(Rank rank, WaitKind from) {
  std::lock_guard lk(mu_);
  auto& s = at(rank);
  if (s.kind == from) set_locked(s, WaitKind::kNone);
}

void WaitRegistry::resume(Rank rank) { wake(rank, WaitKind::kParked); }

void WaitRegistry::resume_all() {
  std::lock_guard lk(mu_);
  for (auto& s : states_) {
    if (s.kind == WaitKind::kParked) set_locked(s, WaitKind::kNone);
  }
}

void WaitRegistry::interrupt() {
  // Taking the lock orders the notify after any in-flight predicate
  // check, as in Mailbox::notify_abort.
  { std::lock_guard lk(mu_); }
  cv_.notify_all();
}

std::vector<WaitInfo> WaitRegistry::await_quiescent() const {
  std::unique_lock lk(mu_);
  cv_.wait(lk, [&] { return quiescent_locked(); });
  return states_;
}

WaitKind WaitRegistry::await_settled(Rank rank) const {
  std::unique_lock lk(mu_);
  const auto& s = states_.at(static_cast<std::size_t>(rank));
  cv_.wait(lk, [&] {
    return s.kind == WaitKind::kParked || s.kind == WaitKind::kFinished ||
           quiescent_locked();
  });
  return s.kind;
}

WaitKind WaitRegistry::kind(Rank rank) const {
  std::lock_guard lk(mu_);
  return states_.at(static_cast<std::size_t>(rank)).kind;
}

std::vector<WaitInfo> WaitRegistry::snapshot() const {
  std::lock_guard lk(mu_);
  return states_;
}

}  // namespace tdbg::mpi
