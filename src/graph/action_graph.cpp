#include "graph/action_graph.hpp"

#include <sstream>

namespace tdbg::graph {

ActionGraph ActionGraph::from_trace(const trace::Trace& trace) {
  ActionGraph g;
  const auto nranks = static_cast<std::size_t>(trace.num_ranks());
  g.per_rank_.resize(nranks);
  // Run-collapsing is a per-rank fold over that rank's program order:
  // one walk over the store, with each rank's call stack and action
  // list picked by the event's rank.
  std::vector<std::vector<trace::ConstructId>> stacks(nranks);
  trace.for_each_event_in_rank_order([&](std::size_t, const trace::Event& e) {
    const auto ri = static_cast<std::size_t>(e.rank);
    auto& actions = g.per_rank_[ri];
    auto& stack = stacks[ri];
    if (e.kind == trace::EventKind::kExit) {
      if (!stack.empty()) stack.pop_back();
      return;
    }
    const auto parent = stack.empty() ? trace::kNoConstruct : stack.back();
    // Extend the previous action when this operation continues the
    // same run (same parent activation, same construct, same kind).
    if (!actions.empty()) {
      auto& last = actions.back();
      if (last.parent == parent && last.construct == e.construct &&
          last.kind == e.kind) {
        ++last.count;
        last.marker_hi = e.marker;
        if (e.kind == trace::EventKind::kEnter) stack.push_back(e.construct);
        return;
      }
    }
    actions.push_back(
        Action{e.rank, parent, e.construct, e.kind, 1, e.marker, e.marker});
    if (e.kind == trace::EventKind::kEnter) stack.push_back(e.construct);
  });
  return g;
}

const std::vector<Action>& ActionGraph::actions(mpi::Rank rank) const {
  return per_rank_.at(static_cast<std::size_t>(rank));
}

std::size_t ActionGraph::total_actions() const {
  std::size_t n = 0;
  for (const auto& v : per_rank_) n += v.size();
  return n;
}

std::uint64_t ActionGraph::total_operations() const {
  std::uint64_t n = 0;
  for (const auto& v : per_rank_) {
    for (const auto& a : v) n += a.count;
  }
  return n;
}

ExportGraph ActionGraph::to_export(
    const trace::ConstructRegistry& constructs) const {
  ExportGraph out;
  out.title = "action graph";
  for (std::size_t r = 0; r < per_rank_.size(); ++r) {
    const auto& actions = per_rank_[r];
    std::string prev;
    for (std::size_t i = 0; i < actions.size(); ++i) {
      const auto& a = actions[i];
      std::ostringstream id;
      id << "r" << r << "a" << i;
      std::ostringstream label;
      label << trace::event_kind_name(a.kind) << " ";
      label << (a.construct == trace::kNoConstruct
                    ? "?"
                    : constructs.info(a.construct).name);
      if (a.count > 1) label << " x" << a.count;
      out.nodes.push_back(
          ExportNode{id.str(), label.str(), "rank " + std::to_string(r)});
      if (!prev.empty()) out.edges.push_back(ExportEdge{prev, id.str(), {}});
      prev = id.str();
    }
  }
  return out;
}

}  // namespace tdbg::graph
