#pragma once

#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "mpi/mailbox.hpp"
#include "mpi/request.hpp"
#include "mpi/types.hpp"
#include "support/error.hpp"

namespace tdbg::mpi {

class World;

/// A rank's handle on the world communicator.  One `Comm` lives on
/// each rank's thread for the duration of `Runtime::run`.
///
/// The API is layered exactly like MPI's profiling interface (paper
/// §2.3):
///
///  * `pmpi_*` methods are the underlying primitives (the `PMPI_`
///    names);
///  * the unprefixed methods are the profiled wrappers (the `MPI_`
///    names): they call the installed `ProfilingHooks` before and
///    after delegating to the `pmpi_*` primitive.
///
/// Applications call the unprefixed methods; installing hooks on the
/// runtime is the equivalent of linking against the instrumented
/// library, and history collection becomes automatic.
class Comm {
 public:
  Comm(World* world, Rank rank);

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  /// This rank's id in [0, size()).
  [[nodiscard]] Rank rank() const { return rank_; }

  /// Number of ranks in the world.
  [[nodiscard]] int size() const;

  // --- PMPI layer: unprofiled primitives -------------------------------

  /// Buffered (eager) send: enqueues at the destination and returns.
  void pmpi_send(std::span<const std::byte> data, Rank dest, Tag tag);

  /// Synchronous send: returns only after the matching receive
  /// completes.
  void pmpi_ssend(std::span<const std::byte> data, Rank dest, Tag tag);

  /// Blocking receive.  `source` may be `kAnySource`, `tag` may be
  /// `kAnyTag`.
  Status pmpi_recv(std::vector<std::byte>& out, Rank source, Tag tag);

  /// Blocking probe: waits until a matching message is queued.
  Status pmpi_probe(Rank source, Tag tag);

  /// Non-blocking probe.
  std::optional<Status> pmpi_iprobe(Rank source, Tag tag);

  // --- MPI layer: profiled wrappers -------------------------------------

  /// Profiled buffered send.  `site` optionally labels the source
  /// location for trace records.
  void send(std::span<const std::byte> data, Rank dest, Tag tag,
            const char* site = nullptr);

  /// Profiled synchronous send.
  void ssend(std::span<const std::byte> data, Rank dest, Tag tag,
             const char* site = nullptr);

  /// Profiled blocking receive.
  Status recv(std::vector<std::byte>& out, Rank source, Tag tag,
              const char* site = nullptr);

  /// Profiled blocking probe.
  Status probe(Rank source, Tag tag, const char* site = nullptr);

  // --- Nonblocking operations (no WAITANY — see request.hpp) -----------

  /// Nonblocking send.  With eager delivery the message is buffered
  /// immediately; the returned request is already complete, but the
  /// call is profiled (and counts a marker) like `MPI_Isend`.
  Request isend(std::span<const std::byte> data, Rank dest, Tag tag,
                const char* site = nullptr);

  /// Posts a nonblocking receive into `sink`.  The buffer must stay
  /// alive until the request is waited on.  Matching (and the marker
  /// for the receive construct) happens at `wait`, in program order.
  Request irecv(std::vector<std::byte>& sink, Rank source, Tag tag,
                const char* site = nullptr);

  /// Completes one request.  For receives this blocks until a message
  /// matches; for sends it returns immediately.  Consumes the handle.
  Status wait(Request& request);

  /// Completes every request, in order (the WAITALL the paper's §6
  /// restrictions allow, as opposed to WAITANY which they exclude).
  std::vector<Status> waitall(std::span<Request> requests);

  // --- Typed conveniences (on top of the profiled layer) ---------------

  /// Sends one trivially-copyable value.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send_value(const T& value, Rank dest, Tag tag,
                  const char* site = nullptr) {
    send(std::as_bytes(std::span<const T>(&value, 1)), dest, tag, site);
  }

  /// Receives one trivially-copyable value.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T recv_value(Rank source, Tag tag, Status* status = nullptr,
               const char* site = nullptr) {
    std::vector<std::byte> buf;
    const Status st = recv(buf, source, tag, site);
    if (status != nullptr) *status = st;
    if (buf.size() != sizeof(T)) {
      throw Error("recv_value: payload size mismatch (got " +
                  std::to_string(buf.size()) + ", want " +
                  std::to_string(sizeof(T)) + ")");
    }
    T value;
    std::memcpy(&value, buf.data(), sizeof(T));
    return value;
  }

  /// Sends a contiguous range of trivially-copyable elements.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send_span(std::span<const T> data, Rank dest, Tag tag,
                 const char* site = nullptr) {
    send(std::as_bytes(data), dest, tag, site);
  }

  /// Receives into a vector of trivially-copyable elements, resizing
  /// it to the received element count.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Status recv_into(std::vector<T>& out, Rank source, Tag tag,
                   Status* status = nullptr, const char* site = nullptr) {
    std::vector<std::byte> buf;
    const Status st = recv(buf, source, tag, site);
    if (buf.size() % sizeof(T) != 0) {
      throw Error("recv_into: payload not a whole number of elements");
    }
    out.resize(buf.size() / sizeof(T));
    std::memcpy(out.data(), buf.data(), buf.size());
    if (status != nullptr) *status = st;
    return st;
  }

  // --- Collectives (profiled as a single construct each) ---------------

  /// Dissemination barrier: O(log P) rounds of pairwise messages.
  void barrier(const char* site = nullptr);

  /// Binomial-tree broadcast of `data` from `root`; on non-root ranks
  /// `data` is replaced by the root's payload.
  void bcast(std::vector<std::byte>& data, Rank root,
             const char* site = nullptr);

  /// Binomial-tree reduction to `root`.  `combine(acc, in)` folds a
  /// child's contribution into the accumulator; both spans have the
  /// caller's payload size.
  void reduce(std::vector<std::byte>& data, Rank root,
              const std::function<void(std::span<std::byte>,
                                       std::span<const std::byte>)>& combine,
              const char* site = nullptr);

  /// Reduction followed by broadcast; every rank ends with the result.
  void allreduce(std::vector<std::byte>& data,
                 const std::function<void(std::span<std::byte>,
                                          std::span<const std::byte>)>& combine,
                 const char* site = nullptr);

  /// Gathers every rank's payload at `root`, ordered by rank.  Returns
  /// the gathered payloads on the root, empty elsewhere.
  std::vector<std::vector<std::byte>> gather(std::span<const std::byte> data,
                                             Rank root,
                                             const char* site = nullptr);

  /// Scatters `parts[r]` from `root` to each rank `r`; returns this
  /// rank's part.
  std::vector<std::byte> scatter(
      const std::vector<std::vector<std::byte>>& parts, Rank root,
      const char* site = nullptr);

  /// All-to-all personalized exchange: sends `parts[r]` to each rank r
  /// and returns what every rank sent here, indexed by source.
  std::vector<std::vector<std::byte>> alltoall(
      const std::vector<std::vector<std::byte>>& parts,
      const char* site = nullptr);

  /// Combined send+receive (`MPI_Sendrecv`).  With eager sends the
  /// send half cannot block, so send-then-receive is free of the
  /// head-to-head deadlock Sendrecv exists to avoid; the two halves
  /// are profiled as their own constructs.
  Status sendrecv(std::span<const std::byte> send_data, Rank dest,
                  Tag send_tag, std::vector<std::byte>& recv_data,
                  Rank source, Tag recv_tag, const char* site = nullptr);

  /// Typed elementwise allreduce over arithmetic values.
  template <typename T, typename Op>
    requires std::is_arithmetic_v<T>
  T allreduce_value(T value, Op op, const char* site = nullptr) {
    std::vector<std::byte> buf(sizeof(T));
    std::memcpy(buf.data(), &value, sizeof(T));
    allreduce(
        buf,
        [&op](std::span<std::byte> acc, std::span<const std::byte> in) {
          T a, b;
          std::memcpy(&a, acc.data(), sizeof(T));
          std::memcpy(&b, in.data(), sizeof(T));
          a = op(a, b);
          std::memcpy(acc.data(), &a, sizeof(T));
        },
        site);
    T out;
    std::memcpy(&out, buf.data(), sizeof(T));
    return out;
  }

  /// Number of receives this rank has completed so far (the replay
  /// controller's `recv_index` space).
  [[nodiscard]] std::uint64_t recv_count() const { return recv_index_; }

  // --- Internal surface for SubComm (see subcomm.hpp) ------------------

  /// Sends on a context-banded wire tag; profiled with the
  /// user-visible `display` tag.
  void context_send(std::span<const std::byte> data, Rank dest, Tag wire,
                    Tag display, const char* site);

  /// Receives on a context-banded wire tag (concrete source only);
  /// the returned status carries the `display` tag.
  Status context_recv(std::vector<std::byte>& out, Rank source, Tag wire,
                      Tag display, const char* site);

  /// Allocates fresh communicator contexts (collective callers only).
  int allocate_contexts(int count);

 private:
  /// Runs `body` bracketed by the profiling hooks, if any.
  template <typename Body>
  auto profiled(CallInfo info, Body&& body);

  void internal_send(std::span<const std::byte> data, Rank dest, Tag tag);
  Status internal_recv(std::vector<std::byte>& out, Rank source, Tag tag);

  World* world_;
  Rank rank_;
  std::uint64_t recv_index_ = 0;
  std::uint64_t ssend_seq_ = 0;  ///< rendezvous tickets (see pmpi_ssend)
};

}  // namespace tdbg::mpi
