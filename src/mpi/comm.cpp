#include "mpi/comm.hpp"

#include <algorithm>
#include <thread>

#include "mpi/world.hpp"
#include "support/error.hpp"

namespace tdbg::mpi {

std::string_view call_kind_name(CallKind kind) {
  switch (kind) {
    case CallKind::kSend: return "MPI_Send";
    case CallKind::kSsend: return "MPI_Ssend";
    case CallKind::kRecv: return "MPI_Recv";
    case CallKind::kProbe: return "MPI_Probe";
    case CallKind::kBarrier: return "MPI_Barrier";
    case CallKind::kBcast: return "MPI_Bcast";
    case CallKind::kReduce: return "MPI_Reduce";
    case CallKind::kAllreduce: return "MPI_Allreduce";
    case CallKind::kGather: return "MPI_Gather";
    case CallKind::kScatter: return "MPI_Scatter";
    case CallKind::kAlltoall: return "MPI_Alltoall";
    case CallKind::kInit: return "MPI_Init";
    case CallKind::kFinalize: return "MPI_Finalize";
  }
  return "MPI_?";
}

namespace {

/// Reserved tag space for collective rounds: disjoint from user tags
/// so collective traffic can never match a user receive.
constexpr Tag kCollectiveTagBase = kMaxUserTag + 1;

void check_user_tag(Tag tag) {
  TDBG_CHECK(tag == kAnyTag || (tag >= 0 && tag <= kMaxUserTag),
             "user tag out of range");
}

void check_rank(Rank rank, int size, bool allow_any) {
  TDBG_CHECK((allow_any && rank == kAnySource) || (rank >= 0 && rank < size),
             "rank out of range");
}

}  // namespace

Comm::Comm(World* world, Rank rank) : world_(world), rank_(rank) {
  TDBG_CHECK(world != nullptr, "Comm needs a world");
  check_rank(rank, world->size(), /*allow_any=*/false);
}

int Comm::size() const { return world_->size(); }

std::size_t Comm::pending_messages() const {
  return world_->mailbox(rank_).queued_count(/*user_only=*/true);
}

// --- PMPI layer -----------------------------------------------------------

void Comm::pmpi_send(std::span<const std::byte> data, Rank dest, Tag tag) {
  check_rank(dest, size(), /*allow_any=*/false);
  Message msg;
  msg.source = rank_;
  msg.dest = dest;
  msg.tag = tag;
  msg.set_payload(data);
  // Fault-injection seam: user-tag deliveries route through the
  // injector (which may delay, hold, reorder, or corrupt); collective
  // traffic and the injector-free path go straight to the mailbox.
  FaultInjector* inj = world_->fault_injector();
  if (inj != nullptr && tag <= kMaxUserTag) {
    inj->deliver(world_->mailbox(dest), std::move(msg));
  } else {
    world_->mailbox(dest).deliver(std::move(msg));
  }
}

void Comm::pmpi_ssend(std::span<const std::byte> data, Rank dest, Tag tag) {
  check_rank(dest, size(), /*allow_any=*/false);
  // A rank has at most one ssend outstanding (the call blocks), so the
  // rendezvous needs no per-message completion handle: the receiver
  // stores this ticket into the sender's world-owned slot, and the
  // sender waits for the slot to catch up.  No allocation, and no
  // lifetime race on abort — the slot outlives the call.
  const std::uint64_t ticket = ++ssend_seq_;
  Message msg;
  msg.source = rank_;
  msg.dest = dest;
  msg.tag = tag;
  msg.synchronous = true;
  msg.sync_seq = ticket;
  msg.set_payload(data);
  // Same seam as pmpi_send.  The injector sees `synchronous` and must
  // not hold or reorder a rendezvous message (the sender is blocked on
  // it below); delay and corruption remain fair game.
  FaultInjector* inj = world_->fault_injector();
  if (inj != nullptr && tag <= kMaxUserTag) {
    inj->deliver(world_->mailbox(dest), std::move(msg));
  } else {
    world_->mailbox(dest).deliver(std::move(msg));
  }

  auto& slot =
      world_->shared().ssend_slots[static_cast<std::size_t>(rank_)].done_seq;
  // Fast path: rendezvous with an already-posted (or spinning)
  // receiver completes in a few microseconds — spin before paying for
  // a sleep/wake cycle.  On a single-CPU host spinning is useless
  // (the receiver cannot run concurrently), so the budget drops to
  // zero and we go straight to yielding, which hands the core to the
  // receiver.  (No PAUSE in the loop — see the mailbox spin note;
  // under virtualization PAUSE can trap and cost microseconds.)
  static const int kSpin =
      std::thread::hardware_concurrency() > 1 ? 8192 : 0;
  for (int i = 0; i < kSpin; ++i) {
    if (slot.load(std::memory_order_acquire) >= ticket) return;
  }
  for (int i = 0; i < 64; ++i) {
    std::this_thread::yield();
    if (slot.load(std::memory_order_acquire) >= ticket) return;
  }
  // Slow path: sleep in the registry until the matching receive wakes
  // this rank (or an abort does).  The slot is re-checked under the
  // registry lock, which the receiver takes only after storing the
  // ticket, so a match cannot slip in between check and wait.
  MailboxShared& shared = world_->shared();
  if (shared.registry.enter_ssend(rank_, dest, tag, slot, ticket)) {
    world_->declare_deadlock();
  }
  shared.registry.await_ssend(rank_, shared.aborted);
  shared.registry.exit_wait(rank_);
  if (slot.load(std::memory_order_acquire) < ticket) throw Aborted{};
}

Status Comm::pmpi_recv(std::vector<std::byte>& out, Rank source, Tag tag) {
  check_rank(source, size(), /*allow_any=*/true);
  return internal_recv(out, source, tag);
}

Status Comm::pmpi_probe(Rank source, Tag tag) {
  check_rank(source, size(), /*allow_any=*/true);
  return world_->mailbox(rank_).probe(source, tag);
}

std::optional<Status> Comm::pmpi_iprobe(Rank source, Tag tag) {
  check_rank(source, size(), /*allow_any=*/true);
  return world_->mailbox(rank_).iprobe(source, tag);
}

void Comm::internal_send(std::span<const std::byte> data, Rank dest, Tag tag) {
  Message msg;
  msg.source = rank_;
  msg.dest = dest;
  msg.tag = tag;
  msg.set_payload(data);
  world_->mailbox(dest).deliver(std::move(msg));
}

Status Comm::internal_recv(std::vector<std::byte>& out, Rank source, Tag tag) {
  // Collective-internal receives pass a null controller: they always
  // name a specific source and internal tag, so matching is already
  // deterministic and they do not consume replay recv indices.
  const bool user_level = tag <= kMaxUserTag;
  MatchController* ctl = user_level ? world_->controller() : nullptr;
  const std::uint64_t index = user_level ? recv_index_ : 0;
  const Status st = world_->mailbox(rank_).receive(source, tag, out, ctl, index);
  if (user_level) ++recv_index_;
  return st;
}

// --- Profiled (MPI_) layer -------------------------------------------------

template <typename Body>
auto Comm::profiled(CallInfo info, Body&& body) {
  ProfilingHooks* hooks = world_->hooks();
  if (hooks != nullptr) hooks->on_call_begin(info);
  if constexpr (std::is_void_v<decltype(body())>) {
    body();
    if (hooks != nullptr) hooks->on_call_end(info, nullptr);
  } else {
    Status st = body();
    if (hooks != nullptr) hooks->on_call_end(info, &st);
    return st;
  }
}

void Comm::send(std::span<const std::byte> data, Rank dest, Tag tag,
                const char* site) {
  check_user_tag(tag);
  TDBG_CHECK(tag != kAnyTag, "send needs a concrete tag");
  profiled(CallInfo{CallKind::kSend, rank_, dest, tag, data.size(), site},
           [&] { pmpi_send(data, dest, tag); });
}

void Comm::ssend(std::span<const std::byte> data, Rank dest, Tag tag,
                 const char* site) {
  check_user_tag(tag);
  TDBG_CHECK(tag != kAnyTag, "ssend needs a concrete tag");
  profiled(CallInfo{CallKind::kSsend, rank_, dest, tag, data.size(), site},
           [&] { pmpi_ssend(data, dest, tag); });
}

Status Comm::recv(std::vector<std::byte>& out, Rank source, Tag tag,
                  const char* site) {
  check_user_tag(tag);
  // Fault-injection seam: match widening rewrites a specific source to
  // kAnySource *before* the CallInfo is built, so the hooks (and the
  // trace record they produce) see a genuine wildcard receive — the
  // race detector must not be able to tell a widened receive from one
  // the program wrote.
  if (FaultInjector* inj = world_->fault_injector(); inj != nullptr) {
    source = inj->post_receive(rank_, source, tag, recv_index_);
  }
  return profiled(CallInfo{CallKind::kRecv, rank_, source, tag, 0, site},
                  [&] { return pmpi_recv(out, source, tag); });
}

Status Comm::probe(Rank source, Tag tag, const char* site) {
  check_user_tag(tag);
  return profiled(CallInfo{CallKind::kProbe, rank_, source, tag, 0, site},
                  [&] { return pmpi_probe(source, tag); });
}

// --- SubComm internal surface ------------------------------------------------

void Comm::context_send(std::span<const std::byte> data, Rank dest, Tag wire,
                        Tag display, const char* site) {
  TDBG_CHECK(wire > kMaxUserTag, "context tag must be banded");
  profiled(CallInfo{CallKind::kSend, rank_, dest, display, data.size(), site},
           [&] { internal_send(data, dest, wire); });
}

Status Comm::context_recv(std::vector<std::byte>& out, Rank source, Tag wire,
                          Tag display, const char* site) {
  TDBG_CHECK(wire > kMaxUserTag, "context tag must be banded");
  TDBG_CHECK(source != kAnySource,
             "subcommunicator receives must name their source");
  Status st = profiled(
      CallInfo{CallKind::kRecv, rank_, source, display, 0, site}, [&] {
        Status inner = internal_recv(out, source, wire);
        inner.tag = display;  // surface the user-visible tag
        return inner;
      });
  return st;
}

int Comm::allocate_contexts(int count) {
  return world_->allocate_contexts(count);
}

// --- Nonblocking operations --------------------------------------------------

Request Comm::isend(std::span<const std::byte> data, Rank dest, Tag tag,
                    const char* site) {
  check_user_tag(tag);
  TDBG_CHECK(tag != kAnyTag, "isend needs a concrete tag");
  profiled(CallInfo{CallKind::kSend, rank_, dest, tag, data.size(), site},
           [&] { pmpi_send(data, dest, tag); });
  auto state = std::make_shared<RequestState>();
  state->kind = RequestKind::kSend;
  state->complete = true;
  return Request(std::move(state));
}

Request Comm::irecv(std::vector<std::byte>& sink, Rank source, Tag tag,
                    const char* site) {
  check_user_tag(tag);
  check_rank(source, size(), /*allow_any=*/true);
  auto state = std::make_shared<RequestState>();
  state->kind = RequestKind::kRecv;
  state->source = source;
  state->tag = tag;
  state->sink = &sink;
  (void)site;  // profiled at completion (wait), where the match is known
  return Request(std::move(state));
}

Status Comm::wait(Request& request) {
  TDBG_CHECK(!request.empty(), "wait on an empty request");
  auto state = request.take();
  if (state->complete) return state->status;
  TDBG_CHECK(state->kind == RequestKind::kRecv,
             "only receives can be incomplete");
  // The posted receive completes here, profiled like MPI_Recv (the
  // marker and control point attach to the completion, which is the
  // point the replay controller must order).
  const Status st = recv(*state->sink, state->source, state->tag, "MPI_Wait");
  state->status = st;
  state->complete = true;
  return st;
}

std::vector<Status> Comm::waitall(std::span<Request> requests) {
  std::vector<Status> statuses;
  statuses.reserve(requests.size());
  for (auto& r : requests) statuses.push_back(wait(r));
  return statuses;
}

// --- Collectives ------------------------------------------------------------

void Comm::barrier(const char* site) {
  profiled(
      CallInfo{CallKind::kBarrier, rank_, kAnySource, kAnyTag, 0, site}, [&] {
        // Dissemination barrier: in round k, rank r signals
        // (r + 2^k) mod P and waits for (r - 2^k) mod P.
        const int p = size();
        const std::byte token{0};
        int round = 0;
        for (int dist = 1; dist < p; dist *= 2, ++round) {
          const Rank to = (rank_ + dist) % p;
          const Rank from = (rank_ - dist % p + p) % p;
          const Tag tag = kCollectiveTagBase + round;
          internal_send(std::span(&token, 1), to, tag);
          std::vector<std::byte> dummy;
          internal_recv(dummy, from, tag);
        }
      });
}

void Comm::bcast(std::vector<std::byte>& data, Rank root, const char* site) {
  check_rank(root, size(), /*allow_any=*/false);
  profiled(
      CallInfo{CallKind::kBcast, rank_, root, kAnyTag, data.size(), site},
      [&] {
        // Classic binomial tree rooted at `root`, on ranks relabeled
        // so the root is virtual rank 0.
        const int p = size();
        const int vrank = (rank_ - root + p) % p;
        const Tag tag = kCollectiveTagBase + 64;
        int mask = 1;
        while (mask < p) {
          if ((vrank & mask) != 0) {
            const Rank parent = ((vrank - mask) + root) % p;
            internal_recv(data, parent, tag);
            break;
          }
          mask <<= 1;
        }
        for (mask >>= 1; mask > 0; mask >>= 1) {
          if (vrank + mask < p) {
            const Rank child = (vrank + mask + root) % p;
            internal_send(std::span<const std::byte>(data), child, tag);
          }
        }
      });
}

void Comm::reduce(
    std::vector<std::byte>& data, Rank root,
    const std::function<void(std::span<std::byte>, std::span<const std::byte>)>&
        combine,
    const char* site) {
  check_rank(root, size(), /*allow_any=*/false);
  profiled(
      CallInfo{CallKind::kReduce, rank_, root, kAnyTag, data.size(), site},
      [&] {
        const int p = size();
        const int vrank = (rank_ - root + p) % p;
        const Tag tag = kCollectiveTagBase + 65;
        // Binomial-tree fold: in round k, vranks with bit k set send
        // their partial to vrank & ~(2^k) and leave.
        for (int mask = 1; mask < p; mask <<= 1) {
          if ((vrank & mask) != 0) {
            const Rank parent = ((vrank & ~mask) + root) % p;
            internal_send(std::span<const std::byte>(data), parent, tag);
            return;
          }
          const int vchild = vrank | mask;
          if (vchild < p) {
            std::vector<std::byte> incoming;
            internal_recv(incoming, (vchild + root) % p, tag);
            TDBG_CHECK(incoming.size() == data.size(),
                       "reduce payload size mismatch");
            combine(std::span(data), std::span<const std::byte>(incoming));
          }
        }
      });
}

void Comm::allreduce(
    std::vector<std::byte>& data,
    const std::function<void(std::span<std::byte>, std::span<const std::byte>)>&
        combine,
    const char* site) {
  profiled(
      CallInfo{CallKind::kAllreduce, rank_, kAnySource, kAnyTag, data.size(),
               site},
      [&] {
        // reduce-to-0 followed by bcast, expressed with the internal
        // primitives so the whole thing profiles as one construct.
        const int p = size();
        const Tag rtag = kCollectiveTagBase + 66;
        const Tag btag = kCollectiveTagBase + 67;
        for (int mask = 1; mask < p; mask <<= 1) {
          if ((rank_ & mask) != 0) {
            internal_send(std::span<const std::byte>(data), rank_ & ~mask,
                          rtag);
            break;
          }
          const int child = rank_ | mask;
          if (child < p) {
            std::vector<std::byte> incoming;
            internal_recv(incoming, child, rtag);
            TDBG_CHECK(incoming.size() == data.size(),
                       "allreduce payload size mismatch");
            combine(std::span(data), std::span<const std::byte>(incoming));
          }
        }
        // Broadcast the result back down a binomial tree rooted at 0.
        int mask = 1;
        while (mask < p) {
          if ((rank_ & mask) != 0) {
            internal_recv(data, rank_ - mask, btag);
            break;
          }
          mask <<= 1;
        }
        for (mask >>= 1; mask > 0; mask >>= 1) {
          if (rank_ + mask < p) {
            internal_send(std::span<const std::byte>(data), rank_ + mask, btag);
          }
        }
      });
}

std::vector<std::vector<std::byte>> Comm::gather(
    std::span<const std::byte> data, Rank root, const char* site) {
  check_rank(root, size(), /*allow_any=*/false);
  std::vector<std::vector<std::byte>> out;
  profiled(
      CallInfo{CallKind::kGather, rank_, root, kAnyTag, data.size(), site},
      [&] {
        const Tag tag = kCollectiveTagBase + 68;
        if (rank_ == root) {
          out.resize(static_cast<std::size_t>(size()));
          out[static_cast<std::size_t>(root)].assign(data.begin(), data.end());
          for (Rank r = 0; r < size(); ++r) {
            if (r == root) continue;
            internal_recv(out[static_cast<std::size_t>(r)], r, tag);
          }
        } else {
          internal_send(data, root, tag);
        }
      });
  return out;
}

std::vector<std::vector<std::byte>> Comm::alltoall(
    const std::vector<std::vector<std::byte>>& parts, const char* site) {
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(size()));
  profiled(
      CallInfo{CallKind::kAlltoall, rank_, kAnySource, kAnyTag,
               parts.empty() ? 0 : parts[0].size(), site},
      [&] {
        TDBG_CHECK(parts.size() == static_cast<std::size_t>(size()),
                   "alltoall needs one part per rank");
        const Tag tag = kCollectiveTagBase + 70;
        // Send phase first (eager sends cannot block), then receive
        // from everyone in rank order.
        for (Rank r = 0; r < size(); ++r) {
          if (r == rank_) {
            out[static_cast<std::size_t>(r)] =
                parts[static_cast<std::size_t>(r)];
            continue;
          }
          internal_send(
              std::span<const std::byte>(parts[static_cast<std::size_t>(r)]),
              r, tag);
        }
        for (Rank r = 0; r < size(); ++r) {
          if (r == rank_) continue;
          internal_recv(out[static_cast<std::size_t>(r)], r, tag);
        }
      });
  return out;
}

Status Comm::sendrecv(std::span<const std::byte> send_data, Rank dest,
                      Tag send_tag, std::vector<std::byte>& recv_data,
                      Rank source, Tag recv_tag, const char* site) {
  send(send_data, dest, send_tag, site);
  return recv(recv_data, source, recv_tag, site);
}

std::vector<std::byte> Comm::scatter(
    const std::vector<std::vector<std::byte>>& parts, Rank root,
    const char* site) {
  check_rank(root, size(), /*allow_any=*/false);
  std::vector<std::byte> mine;
  profiled(
      CallInfo{CallKind::kScatter, rank_, root, kAnyTag,
               rank_ == root && !parts.empty() ? parts[0].size() : 0, site},
      [&] {
        const Tag tag = kCollectiveTagBase + 69;
        if (rank_ == root) {
          TDBG_CHECK(parts.size() == static_cast<std::size_t>(size()),
                     "scatter needs one part per rank");
          for (Rank r = 0; r < size(); ++r) {
            if (r == root) continue;
            internal_send(std::span<const std::byte>(parts[static_cast<std::size_t>(r)]),
                          r, tag);
          }
          mine = parts[static_cast<std::size_t>(root)];
        } else {
          internal_recv(mine, root, tag);
        }
      });
  return mine;
}

}  // namespace tdbg::mpi
