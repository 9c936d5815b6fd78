// Candidate solution bookkeeping shared by Algorithms 2 and 3.
//
// Dynamic-programming candidates must each remember "the current solution
// for the subtree" (the paper's M component) without copying buffer lists on
// every merge. Following the paper's footnote 7, solutions are stored as an
// immutable DAG of arena-allocated cells: a Buffer cell prepends one
// placement, a Merge cell joins the solutions of two branches. The final
// placement list is recovered by one DFS over the chosen candidate's DAG.
//
// A placement is (node, dist_above, type): a buffer `dist_above` µm up the
// parent wire of `node` (0 = at the node itself — the only form Algorithm 3
// emits, since it inserts at existing legal sites).
#pragma once

#include <cstdint>
#include <deque>
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

class PlanArena;

// Index-based handle to a PlanCell of one PlanArena: 0 is the empty
// solution, any other value is cell index + 1. Packs a candidate's plan
// into a 4-byte lane of the fast kernel's SoA candidate blocks
// (core/soa.hpp) where a pointer would double the lane width; refs and
// pointers address the same cells, so a ref converts to a pointer (and
// back to the shared plan_compare/collect machinery) via PlanArena::cell.
using PlanRef = std::uint32_t;
inline constexpr PlanRef kNullPlan = 0;

// One immutable cell of a candidate's solution DAG.
struct PlanCell {
  enum class Kind { Buffer, Wire, Merge };
  Kind kind = Kind::Buffer;
  PlannedBuffer placement;       // valid for Buffer cells
  PlannedWire wire;              // valid for Wire cells
  const PlanCell* a = nullptr;   // previous solution / left branch
  const PlanCell* b = nullptr;   // right branch (Merge only)
};

// Owns every PlanCell of one optimization run. Candidates hold raw pointers
// into the arena, which must outlive them.
class PlanArena {
 public:
  // Solution `prev` extended with one placement.
  const PlanCell* buffer(const PlanCell* prev, PlannedBuffer placement);
  // Solution `prev` extended with one wire-width choice.
  const PlanCell* wire(const PlanCell* prev, PlannedWire choice);
  // Union of two branch solutions (either may be null).
  const PlanCell* merge(const PlanCell* left, const PlanCell* right);

  // The PlanRef (index) forms of the three builders, for callers that store
  // plans in 32-bit lanes. merge_ref shares the pointer form's shortcut: a
  // one-sided merge returns the other side's existing ref, allocating
  // nothing.
  PlanRef buffer_ref(PlanRef prev, PlannedBuffer placement);
  PlanRef wire_ref(PlanRef prev, PlannedWire choice);
  PlanRef merge_ref(PlanRef left, PlanRef right);

  // The cell a ref addresses; nullptr for kNullPlan.
  [[nodiscard]] const PlanCell* cell(PlanRef ref) const {
    return ref == kNullPlan ? nullptr : &cells_[ref - 1];
  }

  [[nodiscard]] std::size_t cell_count() const noexcept {
    return cells_.size();
  }

 private:
  std::deque<PlanCell> cells_;  // deque: stable addresses across growth
};

// All placements reachable from `plan` (null = empty solution).
[[nodiscard]] std::vector<PlannedBuffer> collect(const PlanCell* plan);

// All wire-width choices reachable from `plan`.
[[nodiscard]] std::vector<PlannedWire> collect_wires(const PlanCell* plan);

// Materializes a plan onto `tree`: splits wires where dist_above > 0
// (grouping multiple buffers per wire) and fills `out` with the final
// node -> buffer assignment. When `allow_any_site` is set (Algorithms 1/2,
// which place buffers at arbitrary positions), target nodes are marked as
// legal buffer sites first; Algorithm 3 leaves it false so that placements
// on illegal sites fail validation.
void apply_plan(rct::RoutingTree& tree, const std::vector<PlannedBuffer>& plan,
                rct::BufferAssignment& out, bool allow_any_site = false);

}  // namespace nbuf::core
