#include "core/alg2_multi_sink.hpp"

#include <algorithm>
#include <limits>

#include "core/noise_climb.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace nbuf::core {

namespace {

using detail::ClimbState;
using detail::kTopGapFrac;

// Removes candidates dominated in all of (I, NS, count). Small lists in
// practice (forks are rare), so pairwise comparison is fine; sorting keeps
// the output ordered by current for the linear merge.
void prune(std::vector<ClimbState>& cands) {
  const auto less = [](const ClimbState& a, const ClimbState& b) {
    if (a.current != b.current) return a.current < b.current;
    if (a.noise_slack != b.noise_slack)
      return a.noise_slack > b.noise_slack;
    return a.buffers < b.buffers;
  };
  // Climbing a wire preserves the current order (the same charge is added
  // to every candidate), so lists usually arrive sorted; checking first
  // turns the common case into a linear scan (same trick as the Van
  // Ginneken fast kernel).
  if (!std::is_sorted(cands.begin(), cands.end(), less))
    std::sort(cands.begin(), cands.end(), less);  // nbuf-lint: allow(sort)
  std::vector<ClimbState> kept;
  for (const ClimbState& c : cands) {
    const bool dominated = std::any_of(
        kept.begin(), kept.end(), [&](const ClimbState& k) {
          return k.current <= c.current && k.noise_slack >= c.noise_slack &&
                 k.buffers <= c.buffers;
        });
    if (!dominated) kept.push_back(c);
  }
  cands = std::move(kept);
  // Structural re-verification (contract level 2 / sanitizer builds): the
  // linear source-ward merge is only correct while climb lists stay sorted
  // by current ascending with no pair in a dominance relation. O(n²), but
  // fork lists are tiny in practice.
  if (NBUF_STRUCTURAL_CHECKS != 0) {
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (i > 0)
        NBUF_INVARIANT_CTX(cands[i - 1].current <= cands[i].current,
                           util::ctx("i", i, "current[i-1]",
                                     cands[i - 1].current, "current[i]",
                                     cands[i].current));
      for (std::size_t j = i + 1; j < cands.size(); ++j)
        NBUF_INVARIANT_CTX(!(cands[i].current <= cands[j].current &&
                             cands[i].noise_slack >= cands[j].noise_slack &&
                             cands[i].buffers <= cands[j].buffers),
                           util::ctx("i", i, "j", j));
    }
  }
}

class Alg2Run {
 public:
  Alg2Run(const rct::RoutingTree& tree, const lib::BufferType& buf,
          lib::BufferId bid, PlanArena& arena)
      : tree_(tree), buf_(buf), bid_(bid), arena_(arena) {}

  // Candidates at `v` (below its parent wire), Fig. 9 Steps 1-7.
  std::vector<ClimbState> candidates_at(rct::NodeId v);

  // Climbs every candidate of `child` through its parent wire up to the
  // parent node; pruned, sorted by current ascending.
  std::vector<ClimbState> climbed(rct::NodeId child);

  // Fork helper (Step 6): a buffer at the very top of `child`'s parent wire
  // decouples that branch. Returns the branch's residual state above the
  // buffer: the stub current and the noise slack toward the buffer's input
  // pin. For zero-length branch wires the buffer sits at `child` itself.
  ClimbState decouple(rct::NodeId child, const ClimbState& branch);

  Alg2Stats stats;

 private:
  const rct::RoutingTree& tree_;
  const lib::BufferType& buf_;
  lib::BufferId bid_;
  PlanArena& arena_;
};

std::vector<ClimbState> Alg2Run::climbed(rct::NodeId child) {
  std::vector<ClimbState> cands = candidates_at(child);
  for (ClimbState& c : cands)
    c = detail::climb_wire(tree_.node(child).parent_wire, child, c,
                           buf_.resistance, buf_.noise_margin, bid_, arena_);
  prune(cands);
  return cands;
}

ClimbState Alg2Run::decouple(rct::NodeId child, const ClimbState& branch) {
  // The climb invariant guarantees the buffer can drive the branch:
  // R_b * I <= NS.
  NBUF_ASSERT(buf_.resistance * branch.current <=
              branch.noise_slack + 1e-15);
  const rct::Wire& w = tree_.node(child).parent_wire;
  ClimbState d;
  d.buffers = branch.buffers + 1;
  if (w.length <= 0.0) {
    NBUF_EXPECTS_MSG(tree_.node(child).kind == rct::NodeKind::Internal,
                     "cannot decouple a zero-length wire to a sink");
    d.plan = arena_.buffer(branch.plan, PlannedBuffer{child, 0.0, bid_});
    d.current = 0.0;
    d.noise_slack = buf_.noise_margin;
    return d;
  }
  const double stub = w.length * kTopGapFrac;  // wire left above the buffer
  const double r_per = w.resistance / w.length;
  const double i_per = w.coupling_current / w.length;
  d.plan = arena_.buffer(branch.plan,
                         PlannedBuffer{child, w.length - stub, bid_});
  d.current = i_per * stub;
  d.noise_slack = buf_.noise_margin - r_per * stub * (i_per * stub / 2.0);
  return d;
}

std::vector<ClimbState> Alg2Run::candidates_at(rct::NodeId v) {
  const rct::Node& n = tree_.node(v);

  // Step 1: sinks seed (I = 0, NS = NM).
  if (n.kind == rct::NodeKind::Sink) {
    ClimbState s;
    s.noise_slack = tree_.sink(n.sink).noise_margin;
    stats.candidates_created++;
    return {s};
  }

  NBUF_EXPECTS_MSG(!n.children.empty(), "internal node without children");
  NBUF_EXPECTS_MSG(n.children.size() <= 2,
                   "Algorithm 2 needs a binary tree (call binarize())");

  // Step 2: single child — just the climbed list.
  if (n.children.size() == 1) {
    auto cands = climbed(n.children.front());
    stats.max_list_size = std::max(stats.max_list_size, cands.size());
    return cands;
  }

  // Steps 3-7: two children. Both climbed lists are sorted by current
  // ascending (and slack ascending after pruning); walk them linearly.
  const rct::NodeId lc = n.children[0];
  const rct::NodeId rc = n.children[1];
  const auto left = climbed(lc);
  const auto right = climbed(rc);
  NBUF_ASSERT(!left.empty() && !right.empty());

  NBUF_TRACE_DETAIL_TAGGED("alg2.merge", left.size() + right.size());
  std::vector<ClimbState> merged;
  std::size_t i = 0, j = 0;
  while (i < left.size() && j < right.size()) {
    const ClimbState& a = left[i];
    const ClimbState& b = right[j];
    const double sum_i = a.current + b.current;
    const double min_ns = std::min(a.noise_slack, b.noise_slack);
    if (buf_.resistance * sum_i <= min_ns) {
      // Step 7: merge without a buffer.
      ClimbState m;
      m.current = sum_i;
      m.noise_slack = min_ns;
      m.buffers = a.buffers + b.buffers;
      m.plan = arena_.merge(a.plan, b.plan);
      merged.push_back(m);
      stats.candidates_created++;
    } else {
      // Step 6: even a buffer right above v cannot fix this combination;
      // fork — buffer at the top of the left or of the right branch.
      stats.forks++;
      for (const auto& [dec, other] :
           {std::pair{decouple(lc, a), &b}, std::pair{decouple(rc, b), &a}}) {
        ClimbState m;
        m.current = dec.current + other->current;
        m.noise_slack = std::min(dec.noise_slack, other->noise_slack);
        m.buffers = dec.buffers + other->buffers;
        m.plan = arena_.merge(dec.plan, other->plan);
        merged.push_back(m);
        stats.candidates_created++;
      }
    }
    // Advance the list whose slack binds; its next candidate can only
    // improve the min.
    if (a.noise_slack < b.noise_slack) {
      ++i;
    } else if (b.noise_slack < a.noise_slack) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  prune(merged);
  stats.max_list_size = std::max(stats.max_list_size, merged.size());
  return merged;
}

}  // namespace

MultiSinkResult avoid_noise_multi_sink(const rct::RoutingTree& input,
                                       const lib::BufferLibrary& lib) {
  NBUF_TRACE_SPAN_TAGGED("alg2.run", input.node_count());
  NBUF_EXPECTS_MSG(input.is_binary(),
                   "Algorithm 2 needs a binary tree (call binarize())");
  const lib::BufferId bid = noise_buffer_choice(lib);
  const lib::BufferType& buf = lib.at(bid);

  MultiSinkResult result{input, {}, 0, {}};
  rct::RoutingTree& tree = result.tree;
  const rct::Node& src = tree.node(tree.source());
  NBUF_EXPECTS_MSG(!src.children.empty(), "net has no sinks");

  PlanArena arena;
  Alg2Run run(tree, buf, bid, arena);

  // Source handling (Algorithm 1 Step 5 generalized): build the candidate
  // set at the source including driver-guard variants — a buffer just below
  // the source on a branch whenever the driver alone cannot hold the noise
  // (possible only when R_so > R_b) — then take the feasible candidate with
  // the fewest buffers.
  std::vector<ClimbState> final_cands;
  if (src.children.size() == 1) {
    const rct::NodeId c = src.children.front();
    for (const ClimbState& s : run.climbed(c)) {
      final_cands.push_back(s);
      final_cands.push_back(run.decouple(c, s));
    }
  } else {
    const rct::NodeId lc = src.children[0];
    const rct::NodeId rc = src.children[1];
    const auto left = run.climbed(lc);
    const auto right = run.climbed(rc);
    for (const ClimbState& a : left) {
      for (const ClimbState& b : right) {
        for (const ClimbState& la : {a, run.decouple(lc, a)}) {
          for (const ClimbState& rb : {b, run.decouple(rc, b)}) {
            ClimbState m;
            m.current = la.current + rb.current;
            m.noise_slack = std::min(la.noise_slack, rb.noise_slack);
            m.buffers = la.buffers + rb.buffers;
            m.plan = arena.merge(la.plan, rb.plan);
            final_cands.push_back(m);
          }
        }
      }
    }
  }

  const double r_so = tree.driver().resistance;
  const ClimbState* best = nullptr;
  for (const ClimbState& c : final_cands) {
    if (r_so * c.current > c.noise_slack) continue;
    if (best == nullptr || c.buffers < best->buffers ||
        (c.buffers == best->buffers &&
         c.noise_slack - r_so * c.current >
             best->noise_slack - r_so * best->current)) {
      best = &c;
    }
  }
  NBUF_ASSERT_MSG(best != nullptr,
                  "noise avoidance is always feasible with source guards");

  apply_plan(tree, collect(arena, best->plan), result.buffers,
             /*allow_any_site=*/true);
  result.buffer_count = best->buffers;
  result.stats = run.stats;
  NBUF_ASSERT(result.buffers.size() == best->buffers);
  tree.validate();
  return result;
}

}  // namespace nbuf::core
