#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/session.hpp"
#include "common.hpp"

/// \file layers.hpp
/// Helpers the workloads share around the tdbg layers: artifact
/// digests for the byte-identity checks, deltas of the program's own
/// obs counters, and the traced-run summary (self time per layer and
/// tracing overhead).

namespace perfbench {

/// FNV-1a digest of one artifact's canonical bytes.
struct ArtifactDigest {
  std::string name;
  std::uint64_t hash = 0;
  friend bool operator==(const ArtifactDigest&, const ArtifactDigest&) = default;
};

/// Digests of every Session artifact, in pipeline order, except the
/// quadratic intertwined pairs (infeasible on the post-mortem trace).
std::vector<ArtifactDigest> digest_artifacts(tdbg::analysis::Session& session);

/// FNV-1a over raw bytes.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ull);

/// Value of a program obs instrument (sum over rank slots); 0 when the
/// instrument does not exist.
std::uint64_t obs_total(const char* name);

/// Program obs counters over the measured section.
class ObsDelta {
 public:
  ObsDelta();
  /// Adds the per-unit counter deltas and the pool/server gauges.
  void report(Outcome& out, double units) const;

 private:
  std::map<std::string, std::uint64_t> start_;
};

/// Adds the traced-run summary: each layer's self seconds over the
/// traced sections, their wall time (`traced_wall_s`), and the tracing
/// overhead (median traced unit minus median untraced unit, where the
/// measured units alternate).  Writes nothing in an untraced run.
void report_traced(Outcome& out, double traced_wall_s, const std::vector<double>& untraced,
                   const std::vector<double>& traced);

}  // namespace perfbench
