// Seeded input generators of the three workloads. Each is a pure function
// of (seed, scale): the same seed gives the same inputs.
#pragma once

#include <string>
#include <vector>

#include "batch/batch.hpp"
#include "bench.hpp"
#include "lib/buffer.hpp"

namespace perfbench {

// section5: scale.testbenches draws of the netgen testbench written as
// .net files under <work_dir>/section5; returns the file paths in net order.
[[nodiscard]] std::vector<std::string> write_section5_inputs(
    const RunConfig& cfg, const nbuf::lib::BufferLibrary& lib);

// Writes nets as <dir>/NNNNNN.net (zero-padded, so batch::load_directory's
// filename order is net order), replacing whatever `dir` held; returns the
// paths in net order.
[[nodiscard]] std::vector<std::string> write_net_files(
    const std::vector<nbuf::batch::BatchNet>& nets, const std::string& dir,
    const nbuf::lib::BufferLibrary& lib);

// chain512: straight two-pin chains of scale.chain_sites segments of
// kChainSegmentUm with seeded driver and sink parameters; each sink's RAT
// is a seeded 8-16% headroom above the chain's delay-optimal arrival (a DelayOpt
// run, as netgen derives its RATs), so Problem 3 is well-posed. At 100 µm
// a 512-site chain is 51 mm, which BuffOpt can make noise-clean within
// its 24-buffer cap; a 256 mm chain cut at 500 µm could not, and its
// BuffOpt result would leave signoff nothing to verify.
[[nodiscard]] std::vector<nbuf::batch::BatchNet> make_chains(
    const RunConfig& cfg, const nbuf::lib::BufferLibrary& lib);
inline constexpr double kChainSegmentUm = 100.0;

// serve_eco: branchy balanced trees with 8, 16 or 32 sinks (unsegmented;
// LOAD_NET segments them at kEcoSegmentUm).
[[nodiscard]] std::vector<nbuf::batch::BatchNet> make_eco_trees(
    const RunConfig& cfg);
inline constexpr double kEcoSegmentUm = 150.0;

// Distinct generator streams per workload from one --seed.
[[nodiscard]] inline std::uint64_t sub_seed(std::uint64_t seed,
                                            std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
