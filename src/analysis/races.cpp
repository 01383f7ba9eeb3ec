#include "analysis/races.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "support/executor.hpp"

namespace tdbg::analysis {

namespace {

/// Wildcard receives examined per search task.  The size is fixed
/// (never thread-count derived) so the chunk-ordered concatenation
/// below is deterministic.
constexpr std::size_t kRecvChunk = 16;

/// `SendRun::consumed` of a send no receive consumed.
constexpr std::size_t kNeverConsumed = std::numeric_limits<std::size_t>::max();

/// The sends of one (destination, tag, source) triple in the source's
/// program order, with a sparse table for range-max queries over when
/// each was consumed.
struct SendRun {
  std::vector<std::size_t> sends;  ///< display indices, program order
  /// Program-order position of each send's consumer on the
  /// destination rank, or `kNeverConsumed`.
  std::vector<std::size_t> consumed;
  /// `argmax[j - 1][k]`: the run position in [k, k + 2^j) with the
  /// largest `consumed` (level 0, the identity, is not stored).
  std::vector<std::vector<std::uint32_t>> argmax;

  void build_table() {
    const std::size_t n = sends.size();
    for (std::size_t width = 2; width <= n; width *= 2) {
      const std::size_t half = width / 2;
      const auto pick = [&](std::size_t k) -> std::uint32_t {
        return argmax.empty() ? static_cast<std::uint32_t>(k)
                              : argmax.back()[k];
      };
      std::vector<std::uint32_t> level(n - width + 1);
      for (std::size_t k = 0; k + width <= n; ++k) {
        const std::uint32_t a = pick(k);
        const std::uint32_t b = pick(k + half);
        level[k] = consumed[a] >= consumed[b] ? a : b;
      }
      argmax.push_back(std::move(level));
    }
  }

  /// The run position in [lo, hi) consumed last (lo < hi).
  [[nodiscard]] std::size_t latest(std::size_t lo, std::size_t hi) const {
    const auto j = static_cast<std::size_t>(std::bit_width(hi - lo)) - 1;
    if (j == 0) return lo;
    const std::size_t a = argmax[j - 1][lo];
    const std::size_t b = argmax[j - 1][hi - (std::size_t{1} << j)];
    return consumed[a] >= consumed[b] ? a : b;
  }

  /// Appends every send in run positions [lo, hi) whose consumer is
  /// not before `pos` on the destination rank: each reported send
  /// costs one range-max query, each pruned subrange one more.
  void collect_unconsumed(std::size_t lo, std::size_t hi, std::size_t pos,
                          std::vector<std::size_t>& out) const {
    std::vector<std::pair<std::size_t, std::size_t>> todo{{lo, hi}};
    while (!todo.empty()) {
      const auto [a, b] = todo.back();
      todo.pop_back();
      if (a >= b) continue;
      const std::size_t k = latest(a, b);
      if (consumed[k] < pos) continue;  // all of [a, b) consumed earlier
      out.push_back(sends[k]);
      todo.emplace_back(a, k);
      todo.emplace_back(k + 1, b);
    }
  }
};

/// (destination, tag, source).
using RunKey = std::tuple<mpi::Rank, mpi::Tag, mpi::Rank>;

}  // namespace

RaceReport find_races(const SweepData& sweep,
                      const causality::CausalOrder& order) {
  obs::ScopedTimer timer(obs::MetricsRegistry::global().histogram(
                             "analysis.races_ns", obs::Unit::kNanoseconds),
                         /*rank=*/-1);
  RaceReport report;
  const auto& index = order.index();

  // The matched wildcard receives, in display order — the race list's
  // order — and the (destination, tag) pairs they can race on.
  std::vector<const SweepRecv*> recvs;
  std::set<std::pair<mpi::Rank, mpi::Tag>> wanted;
  for (const auto& [key, ch] : sweep.channels) {
    for (const auto& rv : ch.recvs) {
      if (!rv.wildcard || index.send_of[rv.index] == trace::kNoEvent) continue;
      recvs.push_back(&rv);
      wanted.emplace(rv.rank, rv.tag);
    }
  }
  std::sort(recvs.begin(), recvs.end(),
            [](const SweepRecv* a, const SweepRecv* b) {
              return a->index < b->index;
            });

  // The send index, only over the (destination, tag) pairs some
  // receive asks about.  Channel send lists are in display order,
  // which is program order on every trace the runtime writes; a
  // hand-built history gets sorted by position.
  std::map<RunKey, SendRun> runs;
  for (const auto& [key, ch] : sweep.channels) {
    for (const auto& s : ch.sends) {
      if (wanted.count({s.peer, s.tag}) == 0) continue;
      runs[RunKey(s.peer, s.tag, s.rank)].sends.push_back(s.index);
    }
  }
  std::vector<SendRun*> run_list;
  run_list.reserve(runs.size());
  for (auto& [key, run] : runs) run_list.push_back(&run);
  exec::Executor::global().parallel_for(
      run_list.size(), "analysis.races.index", [&](std::size_t i) {
        SendRun& run = *run_list[i];
        const auto by_position = [&](std::size_t a, std::size_t b) {
          return index.position[a] < index.position[b];
        };
        if (!std::is_sorted(run.sends.begin(), run.sends.end(),
                            by_position)) {
          std::sort(run.sends.begin(), run.sends.end(), by_position);
        }
        run.consumed.reserve(run.sends.size());
        for (const std::size_t s : run.sends) {
          const std::size_t c = index.recv_of[s];
          run.consumed.push_back(c == trace::kNoEvent ? kNeverConsumed
                                                      : index.position[c]);
        }
        run.build_table();
      });

  // The search: chunks of receives in parallel over read-only state;
  // the per-chunk race lists concatenate in chunk order, which is
  // receive display order.
  const std::size_t nrecvs = recvs.size();
  const std::size_t nchunks = (nrecvs + kRecvChunk - 1) / kRecvChunk;
  std::vector<std::vector<MessageRace>> per_chunk(nchunks);
  exec::Executor::global().parallel_for(
      nchunks, "analysis.races.pair", [&](std::size_t c) {
        const std::size_t lo = c * kRecvChunk;
        const std::size_t hi = std::min(lo + kRecvChunk, nrecvs);
        for (std::size_t k = lo; k < hi; ++k) {
          const SweepRecv& recv = *recvs[k];
          const std::size_t r = recv.index;
          const std::size_t matched = index.send_of[r];
          const mpi::Rank matched_rank = index.rank[matched];

          MessageRace race;
          race.recv_index = r;
          race.matched_send = matched;

          // A candidate goes to the receive's rank with the receive's
          // tag (the posted tag is not stored separately; the matched
          // message's tag equals it unless the receive was also
          // ANY_TAG, and requiring equal tags is the conservative,
          // no-false-positive choice).
          const RunKey first(recv.rank, recv.tag,
                             std::numeric_limits<mpi::Rank>::min());
          for (auto it = runs.lower_bound(first);
               it != runs.end() && std::get<0>(it->first) == recv.rank &&
               std::get<1>(it->first) == recv.tag;
               ++it) {
            const auto& sends = it->second.sends;
            // A send that causally requires R to be done cannot race.
            // Vector clocks only grow along the source's program
            // order, so those sends are a suffix.
            const auto end = std::partition_point(
                sends.begin(), sends.end(), [&](std::size_t s) {
                  return !order.happens_before(r, s);
                });
            // Non-overtaking: on the matched send's own rank, m and
            // the sends before it are ordered, not racing; a later
            // same-source message can still race.  Distinct sources
            // always race.
            auto begin = sends.begin();
            if (std::get<2>(it->first) == matched_rank) {
              begin = std::partition_point(
                  sends.begin(), end, [&](std::size_t s) {
                    return s == matched || order.happens_before(s, matched);
                  });
            }
            // A send consumed strictly before R could see it is gone
            // in every legal execution reaching R.  Its consumer is on
            // R's rank, so "happens before R" is "earlier position".
            it->second.collect_unconsumed(
                static_cast<std::size_t>(begin - sends.begin()),
                static_cast<std::size_t>(end - sends.begin()),
                index.position[r], race.candidates);
          }
          if (!race.candidates.empty()) {
            std::sort(race.candidates.begin(), race.candidates.end());
            per_chunk[c].push_back(std::move(race));
          }
        }
      });
  for (auto& chunk : per_chunk) {
    for (auto& race : chunk) report.races.push_back(std::move(race));
  }
  return report;
}

}  // namespace tdbg::analysis
