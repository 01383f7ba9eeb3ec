#include "apps/halo.hpp"

#include <vector>

#include "instrument/api.hpp"

namespace tdbg::apps::halo {
namespace {

/// Superstep `index`: send my boundary values out, then receive the
/// neighbours' — quiescent by construction — and relax `data`.
void step(mpi::Comm& comm, std::vector<double>& data, std::uint64_t index) {
  TDBG_FUNCTION_ARGS(index, 0);
  const mpi::Rank rank = comm.rank();
  const mpi::Rank left = rank > 0 ? rank - 1 : mpi::kAnySource;
  const mpi::Rank right = rank < comm.size() - 1 ? rank + 1 : mpi::kAnySource;

  if (left != mpi::kAnySource) {
    comm.send_value<double>(data.front(), left, 1, "halo_send");
  }
  if (right != mpi::kAnySource) {
    comm.send_value<double>(data.back(), right, 2, "halo_send");
  }
  double from_right = data.back();
  double from_left = data.front();
  if (right != mpi::kAnySource) {
    from_right = comm.recv_value<double>(right, 1, nullptr, "halo_recv");
  }
  if (left != mpi::kAnySource) {
    from_left = comm.recv_value<double>(left, 2, nullptr, "halo_recv");
  }

  std::vector<double> next(data);
  next.front() = 0.5 * (data.front() + from_left);
  next.back() = 0.5 * (data.back() + from_right);
  for (std::size_t i = 1; i + 1 < data.size(); ++i) {
    next[i] = 0.25 * (data[i - 1] + 2 * data[i] + data[i + 1]);
  }
  data = std::move(next);
}

}  // namespace

void rank_body(mpi::Comm& comm, const Options& options) {
  std::vector<double> data(options.cells,
                            static_cast<double>(comm.rank() + 1));
  std::uint64_t index = 0;
  do {
    step(comm, data, index);
  } while (++index < options.max_steps);
}

}  // namespace tdbg::apps::halo
