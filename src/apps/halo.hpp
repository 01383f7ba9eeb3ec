#pragma once

#include <cstdint>

#include "mpi/comm.hpp"

/// \file halo.hpp
/// A BSP halo-exchange relaxation.  Each superstep exchanges boundary
/// values with ring neighbours and relaxes the interior; steps end
/// quiescent by construction (send, then receive everything sent to
/// you).

namespace tdbg::apps::halo {

/// Workload parameters.
struct Options {
  std::size_t cells = 32;        ///< per-rank vector length
  std::uint64_t max_steps = 200; ///< supersteps to run (at least one)
};

/// The rank body: starts every cell at `rank + 1` and runs
/// `max_steps` supersteps.
void rank_body(mpi::Comm& comm, const Options& options);

}  // namespace tdbg::apps::halo
