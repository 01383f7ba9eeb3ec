#include "causality/causal_order.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace tdbg::causality {

void for_each_in_causal_order(const trace::RankIndex& index,
                              const std::function<void(std::size_t e)>& visit) {
  const auto& seqs = index.seq;
  std::vector<std::size_t> next(seqs.size(), 0);
  // Round-robin over ranks: each advances in program order until it
  // reaches a receive whose send its own rank's cursor has not passed.
  std::size_t remaining = index.position.size();
  while (remaining > 0) {
    std::size_t advanced = 0;
    for (std::size_t r = 0; r < seqs.size(); ++r) {
      auto& pos = next[r];
      while (pos < seqs[r].size()) {
        const std::size_t e = seqs[r][pos];
        const std::size_t send = index.send_of[e];
        if (send != trace::kNoEvent &&
            next[static_cast<std::size_t>(index.rank[send])] <=
                index.position[send]) {
          break;  // wait for the send
        }
        visit(e);
        ++pos;
        ++advanced;
      }
    }
    if (advanced == 0) {
      std::string stuck;
      for (std::size_t r = 0; r < seqs.size(); ++r) {
        if (next[r] == seqs[r].size()) continue;
        stuck += (stuck.empty() ? "" : ", ") + std::to_string(r);
      }
      throw FormatError("cyclic message dependency in trace: rank(s) " +
                        stuck +
                        " wait on receives whose sends can never happen "
                        "(corrupt trace file?)");
    }
    remaining -= advanced;
  }
}

CausalOrder::CausalOrder(const trace::Trace& trace, trace::MatchReport matches,
                         std::shared_ptr<const trace::RankIndex> index)
    : trace_(&trace), matches_(std::move(matches)), index_(std::move(index)) {
  TDBG_CHECK(index_ != nullptr, "causal order needs a rank index");
  obs::ScopedTimer timer(
      obs::MetricsRegistry::global().histogram("analysis.causal_order_ns",
                                               obs::Unit::kNanoseconds),
      /*rank=*/-1);
  const auto ranks = static_cast<std::size_t>(trace.num_ranks());
  clocks_.assign(trace.size(), {});
  for_each_in_causal_order(*index_, [&](std::size_t e) {
    const std::size_t r = rank_of(e);
    const std::size_t pos = pos_of(e);
    std::vector<std::uint32_t> vc(ranks, 0);
    if (pos > 0) vc = clocks_[seqs()[r][pos - 1]];
    if (const std::size_t send = index_->send_of[e];
        send != trace::kNoEvent) {
      const auto& sc = clocks_[send];
      for (std::size_t q = 0; q < ranks; ++q) vc[q] = std::max(vc[q], sc[q]);
    }
    vc[r] = static_cast<std::uint32_t>(pos + 1);
    clocks_[e] = std::move(vc);
  });
}

const std::vector<std::uint32_t>& CausalOrder::clock(std::size_t e) const {
  return clocks_.at(e);
}

std::size_t CausalOrder::position(std::size_t e) const {
  return pos_of(e);
}

bool CausalOrder::happens_before(std::size_t a, std::size_t b) const {
  if (a == b) return false;
  // a happens before b iff b's clock has seen a's position on a's rank.
  return clocks_.at(b)[rank_of(a)] >= pos_of(a) + 1;
}

bool CausalOrder::concurrent(std::size_t a, std::size_t b) const {
  return a != b && !happens_before(a, b) && !happens_before(b, a);
}

Frontier CausalOrder::past_frontier(std::size_t e) const {
  const auto ranks = static_cast<std::size_t>(trace_->num_ranks());
  const auto& vc = clocks_.at(e);
  Frontier frontier(ranks);
  const auto re = rank_of(e);
  for (std::size_t r = 0; r < ranks; ++r) {
    // Events of r in the strict past: vc[r] of them, except on e's own
    // rank where vc counts e itself.
    std::size_t count = vc[r];
    if (r == re) --count;  // exclude e
    if (count == 0) continue;
    frontier[r] = seqs()[r][count - 1];
  }
  return frontier;
}

Frontier CausalOrder::future_frontier(std::size_t e) const {
  const auto ranks = static_cast<std::size_t>(trace_->num_ranks());
  Frontier frontier(ranks);
  const auto re = rank_of(e);
  const auto threshold = static_cast<std::uint32_t>(pos_of(e) + 1);
  for (std::size_t r = 0; r < ranks; ++r) {
    const auto& seq = seqs()[r];
    if (r == re) {
      if (pos_of(e) + 1 < seq.size()) {
        frontier[r] = seq[pos_of(e) + 1];
      }
      continue;
    }
    // clock component `re` is nondecreasing along rank r's sequence:
    // binary-search the first event that has seen e.
    const auto it = std::partition_point(
        seq.begin(), seq.end(), [&](std::size_t f) {
          return clocks_[f][re] < threshold;
        });
    if (it != seq.end()) frontier[r] = *it;
  }
  return frontier;
}

std::vector<std::size_t> CausalOrder::causal_past(std::size_t e) const {
  std::vector<std::size_t> past;
  const auto frontier = past_frontier(e);
  for (std::size_t r = 0; r < frontier.size(); ++r) {
    if (!frontier[r]) continue;
    const auto& seq = seqs()[r];
    const auto last_pos = pos_of(*frontier[r]);
    for (std::size_t pos = 0; pos <= last_pos; ++pos) past.push_back(seq[pos]);
  }
  std::sort(past.begin(), past.end());
  return past;
}

std::vector<std::size_t> CausalOrder::causal_future(std::size_t e) const {
  std::vector<std::size_t> future;
  const auto frontier = future_frontier(e);
  for (std::size_t r = 0; r < frontier.size(); ++r) {
    if (!frontier[r]) continue;
    const auto& seq = seqs()[r];
    for (std::size_t pos = pos_of(*frontier[r]); pos < seq.size();
         ++pos) {
      future.push_back(seq[pos]);
    }
  }
  std::sort(future.begin(), future.end());
  return future;
}

std::vector<std::size_t> CausalOrder::concurrency_region(std::size_t e) const {
  std::vector<std::size_t> region;
  for (std::size_t f = 0; f < trace_->size(); ++f) {
    if (f != e && concurrent(e, f)) region.push_back(f);
  }
  return region;
}

Cut CausalOrder::past_frontier_cut(std::size_t e) const {
  const auto& vc = clocks_.at(e);
  Cut cut;
  cut.prefix_len.assign(vc.begin(), vc.end());
  cut.prefix_len[rank_of(e)] = pos_of(e);  // stop right before executing e
  return cut;
}

Cut CausalOrder::future_frontier_cut(std::size_t e) const {
  const auto ranks = static_cast<std::size_t>(trace_->num_ranks());
  const auto frontier = future_frontier(e);
  Cut cut;
  cut.prefix_len.assign(ranks, 0);
  for (std::size_t r = 0; r < ranks; ++r) {
    // Ranks with no event in e's future run to completion.
    cut.prefix_len[r] =
        frontier[r] ? pos_of(*frontier[r]) : seqs()[r].size();
  }
  cut.prefix_len[rank_of(e)] = pos_of(e) + 1;  // e itself has executed
  return cut;
}

bool is_consistent(const trace::MatchReport& report,
                   const trace::RankIndex& index, const Cut& cut) {
  TDBG_CHECK(cut.prefix_len.size() == index.seq.size(),
             "cut rank count mismatch");
  const auto inside = [&](std::size_t e) {
    return index.position[e] <
           cut.prefix_len[static_cast<std::size_t>(index.rank[e])];
  };
  for (const auto& m : report.matches) {
    if (inside(m.recv_index) && !inside(m.send_index)) return false;
  }
  return true;
}

Cut cut_at_time(const trace::Trace& trace, support::TimeNs t) {
  Cut cut;
  const auto nranks = static_cast<std::size_t>(trace.num_ranks());
  cut.prefix_len.assign(nranks, 0);
  // t_end is not monotone along a rank (nested intervals), so each
  // rank's prefix ends after its last event finished by t: one walk
  // with a program-order position counter per rank.
  std::vector<std::size_t> seen(nranks, 0);
  trace.for_each_event_in_rank_order([&](std::size_t, const trace::Event& e) {
    const auto r = static_cast<std::size_t>(e.rank);
    ++seen[r];
    if (e.t_end <= t) cut.prefix_len[r] = seen[r];
  });
  return cut;
}

std::size_t restrict_to_consistent(const trace::MatchReport& report,
                                   const trace::RankIndex& index, Cut& cut) {
  const auto& pos = index.position;
  std::size_t dropped = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& m : report.matches) {
      const auto rr = static_cast<std::size_t>(index.rank[m.recv_index]);
      const auto sr = static_cast<std::size_t>(index.rank[m.send_index]);
      const bool recv_inside = pos[m.recv_index] < cut.prefix_len[rr];
      const bool send_inside = pos[m.send_index] < cut.prefix_len[sr];
      if (recv_inside && !send_inside) {
        dropped += cut.prefix_len[rr] - pos[m.recv_index];
        cut.prefix_len[rr] = pos[m.recv_index];
        changed = true;
      }
    }
  }
  return dropped;
}

}  // namespace tdbg::causality
