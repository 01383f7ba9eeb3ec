#include "mpi/world.hpp"

#include <sstream>

#include "support/error.hpp"
#include "telemetry/log.hpp"

namespace tdbg::mpi {

namespace {

std::string describe_waits(const std::vector<WaitInfo>& waits) {
  std::ostringstream os;
  bool first = true;
  for (const auto& w : waits) {
    if (w.kind != WaitKind::kRecv && w.kind != WaitKind::kSsend) continue;
    if (!first) os << "; ";
    first = false;
    os << "rank " << w.rank
       << (w.kind == WaitKind::kRecv ? " blocked in recv(src=" :
                                       " blocked in ssend(dst=");
    if (w.peer == kAnySource) {
      os << "ANY";
    } else {
      os << w.peer;
    }
    os << ", tag=";
    if (w.tag == kAnyTag) {
      os << "ANY";
    } else {
      os << w.tag;
    }
    os << ")";
  }
  return os.str();
}

}  // namespace

World::World(int size, ProfilingHooks* hooks, MatchController* controller,
             FaultInjector* fault_injector)
    : size_(size), hooks_(hooks), controller_(controller),
      fault_injector_(fault_injector), shared_(size) {
  TDBG_CHECK(size > 0, "world size must be positive");
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (Rank r = 0; r < size; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>(r, size, &shared_));
  }
  shared_.declare_deadlock = [this] { declare_deadlock(); };
}

void World::declare_deadlock() {
  if (shared_.aborted.load(std::memory_order_acquire)) return;
  const auto waits = shared_.registry.snapshot();
  std::uint64_t blocked = 0;
  for (const auto& w : waits) {
    blocked += w.kind == WaitKind::kRecv || w.kind == WaitKind::kSsend;
  }
  TDBG_LOG(telemetry::LogLevel::kError, "mpi.watchdog.deadlock", blocked);
  abort(AbortCause::kDeadlock, "deadlock: " + describe_waits(waits));
}

void World::abort(AbortCause cause, std::string detail) {
  TDBG_LOG(telemetry::LogLevel::kError, "mpi.abort",
           static_cast<std::uint64_t>(cause));
  {
    std::lock_guard lk(abort_mu_);
    if (abort_.cause == AbortCause::kNone) {
      abort_.cause = cause;
      abort_.detail = std::move(detail);
      abort_.waits = shared_.registry.snapshot();
    }
  }
  shared_.aborted.store(true, std::memory_order_release);
  for (auto& mb : mailboxes_) mb->notify_abort();
  shared_.registry.interrupt();
}

}  // namespace tdbg::mpi
