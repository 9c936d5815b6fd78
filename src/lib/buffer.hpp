// Buffer library: the set of restoring gates available for insertion.
//
// The paper's experiments use a precharacterized library of 11 buffers
// (5 inverting + 6 non-inverting) of varying power levels with a linear gate
// delay model (Section II-A):
//
//   delay(g, load) = intrinsic_delay(g) + resistance(g) * load
//
// and a single shared noise margin of 0.8 V (Section V). default_library()
// reproduces that shape for a 0.25 µm-class process.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/strong_id.hpp"

namespace nbuf::lib {

struct BufferTag {};
// Index of a buffer type within a BufferLibrary.
using BufferId = util::StrongId<BufferTag>;

// One restoring gate (buffer or inverter) of the insertion library.
struct BufferType {
  std::string name;
  double resistance = 0.0;       // ohm — intrinsic output resistance R_b
  double input_cap = 0.0;        // farad — input pin capacitance C_b
  double intrinsic_delay = 0.0;  // second — intrinsic delay D_b
  double noise_margin = 0.0;     // volt — tolerable peak noise at the input
  bool inverting = false;        // flips signal polarity when true
};

class BufferLibrary {
 public:
  BufferLibrary() = default;
  explicit BufferLibrary(std::vector<BufferType> types);

  // Appends a type and returns its id. Name must be unique and parameters
  // strictly positive (noise margin may be +inf to model "noise-immune").
  BufferId add(BufferType type);

  [[nodiscard]] const BufferType& at(BufferId id) const;
  [[nodiscard]] std::size_t size() const noexcept { return types_.size(); }
  [[nodiscard]] bool empty() const noexcept { return types_.empty(); }
  [[nodiscard]] const std::vector<BufferType>& types() const noexcept {
    return types_;
  }

  // Every id, in insertion order.
  [[nodiscard]] std::vector<BufferId> ids() const;

  // Id of the type with the given name, if any.
  [[nodiscard]] std::optional<BufferId> find(std::string_view name) const;

  [[nodiscard]] std::size_t inverting_count() const;

  // The buffer with smallest output resistance (exact resistance ties
  // resolve to the lexicographically smallest name, so the choice is
  // independent of the library's insertion order). Theorem 1's observation:
  // for pure noise avoidance the smallest-resistance buffer always yields
  // the maximum buffer spacing, so Algorithms 1 and 2 reduce a multi-buffer
  // library to this single type.
  [[nodiscard]] BufferId strongest() const;

 private:
  std::vector<BufferType> types_;
};

// The 11-buffer library used by all experiments: x1..x16 inverters and
// x1..x24 non-inverting buffers, NM = 0.8 V, geometric strength ladder.
[[nodiscard]] BufferLibrary default_library();

// A single mid-strength non-inverting buffer; the configuration under which
// the paper proves optimality of all three algorithms.
[[nodiscard]] BufferLibrary single_buffer_library();

// A synthetic geometric strength ladder of `types` gates for library-size
// sweeps (the nbuf_cli --lib-size flag and bench/figK_library_scaling):
// resistances interpolate log-uniformly from ~1.2 kΩ down to ~45 Ω, input
// caps rise inversely, and the first round(types * inverting_fraction)
// rungs (spread across the ladder) are inverters. `types` must be >= 1;
// inverting_fraction in [0, 1) — at least one rung stays non-inverting.
// Every resistance and input cap is strictly distinct, so candidate
// tie-break order never depends on the kernel's unstable sorts.
[[nodiscard]] BufferLibrary make_ladder_library(std::size_t types,
                                                double inverting_fraction);

}  // namespace nbuf::lib
