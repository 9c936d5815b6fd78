// Candidate solution bookkeeping shared by Algorithms 2 and 3.
//
// Dynamic-programming candidates must each remember "the current solution
// for the subtree" (the paper's M component) without copying buffer lists on
// every merge. Following the paper's footnote 7, solutions are stored as an
// immutable DAG of arena-allocated cells addressed by 32-bit refs: a Buffer
// cell prepends one placement, a Wire cell one wire-width choice, a Merge
// cell joins the solutions of two branches. The final placement list is
// recovered by one DFS over the chosen candidate's DAG.
//
// A placement is (node, dist_above, type): a buffer `dist_above` µm up the
// parent wire of `node` (0 = at the node itself — the only form Algorithm 3
// emits, since it inserts at existing legal sites).
#pragma once

#include <cstdint>
#include <vector>

#include "lib/buffer.hpp"
#include "rct/assignment.hpp"
#include "rct/tree.hpp"

namespace nbuf::core {

struct PlannedBuffer {
  rct::NodeId node;
  double dist_above = 0.0;  // µm above `node` on its parent wire
  lib::BufferId type;
};

// A wire-width choice (simultaneous wire sizing, Lillis et al. [18]):
// the parent wire of `node` is realized at `width` (an index into a
// WireWidthLibrary).
struct PlannedWire {
  rct::NodeId node;
  std::size_t width = 0;
};

// Handle to a PlanCell of one PlanArena: 0 is the empty solution, any other
// value is cell index + 1. Candidates hold refs, never cell addresses, so a
// plan is a 4-byte field of every VgCand (core/vg_kernel.hpp) and the arena
// may move its cells when it grows.
using PlanRef = std::uint32_t;
inline constexpr PlanRef kNullPlan = 0;

// One immutable cell of a candidate's solution DAG: a tagged payload over
// two 32-bit slots plus a distance.
//   Buffer: a = previous solution, x = node, y = buffer type, dist.
//   Wire:   a = previous solution, x = node, y = width.
//   Merge:  a = left branch, x = right branch (a PlanRef).
struct PlanCell {
  enum class Kind : std::uint8_t { Buffer, Wire, Merge };
  PlanRef a = kNullPlan;
  std::uint32_t x = 0;
  std::uint32_t y = 0;
  Kind kind = Kind::Buffer;
  double dist = 0.0;
};
static_assert(sizeof(PlanCell) <= 24, "PlanCell must stay a 24-byte cell");

// Owns every PlanCell of one optimization run (or, for
// core::IncrementalContext, of a context's lifetime). Refs into the arena
// stay valid for its lifetime; cell references from at() only until the
// next builder call.
class PlanArena {
 public:
  // Solution `prev` extended with one placement.
  PlanRef buffer(PlanRef prev, PlannedBuffer placement);
  // Solution `prev` extended with one wire-width choice.
  PlanRef wire(PlanRef prev, PlannedWire choice);
  // Union of two branch solutions. A one-sided merge (either side
  // kNullPlan) returns the other side's existing ref, allocating nothing.
  PlanRef merge(PlanRef left, PlanRef right);

  // The cell `ref` addresses; ref must not be kNullPlan.
  [[nodiscard]] const PlanCell& at(PlanRef ref) const {
    return cells_[ref - 1];
  }

  [[nodiscard]] std::size_t cell_count() const noexcept {
    return cells_.size();
  }

 private:
  PlanRef push(const PlanCell& c);

  std::vector<PlanCell> cells_;
};

// All placements reachable from `plan` (kNullPlan = empty solution).
[[nodiscard]] std::vector<PlannedBuffer> collect(const PlanArena& arena,
                                                 PlanRef plan);

// All wire-width choices reachable from `plan`.
[[nodiscard]] std::vector<PlannedWire> collect_wires(const PlanArena& arena,
                                                     PlanRef plan);

// Materializes a plan onto `tree`: splits wires where dist_above > 0
// (grouping multiple buffers per wire) and fills `out` with the final
// node -> buffer assignment. When `allow_any_site` is set (Algorithms 1/2,
// which place buffers at arbitrary positions), target nodes are marked as
// legal buffer sites first; Algorithm 3 leaves it false so that placements
// on illegal sites fail validation.
void apply_plan(rct::RoutingTree& tree, const std::vector<PlannedBuffer>& plan,
                rct::BufferAssignment& out, bool allow_any_site = false);

}  // namespace nbuf::core
