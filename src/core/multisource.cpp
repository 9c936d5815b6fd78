#include "core/multisource.hpp"

#include <algorithm>
#include <limits>

#include "core/alg1_single_sink.hpp"
#include "rct/extract.hpp"
#include "rct/reroot.hpp"
#include "util/check.hpp"


namespace nbuf::core {

namespace {

constexpr double kSegmentUm = 500.0;    // base-tree segmenting granularity
constexpr std::size_t kMaxRounds = 8;  // repair rounds over every mode

// The base tree, the current repeater set, and one mode, seen from the
// mode's driver: (rerooted tree, mapped assignment, old->new node map).
struct ModeView {
  rct::RerootResult rr;
  rct::BufferAssignment buffers;
};

ModeView mode_view(const rct::RoutingTree& tree,
                   const rct::BufferAssignment& repeaters,
                   const NetMode& mode,
                   const rct::SinkInfo& source_as_sink) {
  ModeView mv;
  if (!mode.terminal.valid()) {
    // Base mode: identity view.
    mv.rr.tree = tree;
    mv.rr.new_id_of.resize(tree.node_count());
    for (std::size_t i = 0; i < tree.node_count(); ++i)
      mv.rr.new_id_of[i] = rct::NodeId{static_cast<unsigned>(i)};
    mv.buffers = repeaters;
    if (mode.driver.resistance > 0.0) mv.rr.tree.set_driver(mode.driver);
    return mv;
  }
  mv.rr = rct::reroot(tree, mode.terminal, mode.driver, source_as_sink);
  mv.buffers = rct::map_assignment(repeaters, mv.rr);
  return mv;
}

}  // namespace

std::vector<noise::NoiseReport> analyze_modes(
    const rct::RoutingTree& tree, const rct::BufferAssignment& repeaters,
    const lib::BufferLibrary& lib, const std::vector<NetMode>& modes,
    const rct::SinkInfo& source_as_sink) {
  std::vector<noise::NoiseReport> out;
  out.reserve(modes.size());
  for (const NetMode& m : modes) {
    const ModeView mv = mode_view(tree, repeaters, m, source_as_sink);
    out.push_back(noise::analyze(mv.rr.tree, mv.buffers, lib));
  }
  return out;
}

MultiSourceResult optimize_multisource(const rct::RoutingTree& input,
                                       const lib::BufferLibrary& lib,
                                       const std::vector<NetMode>& modes,
                                       const MultiSourceOptions& options) {
  NBUF_EXPECTS_MSG(!modes.empty(), "a net needs at least one mode");
  NBUF_EXPECTS(options.source_as_sink.noise_margin > 0.0 ||
               std::all_of(modes.begin(), modes.end(), [](const NetMode& m) {
                 return !m.terminal.valid();
               }));
  const lib::BufferId rep = noise_buffer_choice(lib);

  MultiSourceResult result;
  result.tree = input;
  result.tree.binarize();
  seg::segment(result.tree, {kSegmentUm});

  // Inverse of new_id_of per mode view is rebuilt each round; repeaters
  // live on base-tree ids.
  for (result.rounds = 0; result.rounds < kMaxRounds;
       ++result.rounds) {
    bool all_clean = true;
    for (const NetMode& mode : modes) {
      const ModeView mv = mode_view(result.tree, result.repeaters, mode,
                                    options.source_as_sink);
      // new -> old map for placing repairs back on the base tree.
      std::vector<rct::NodeId> old_of(mv.rr.tree.node_count());
      for (std::size_t oldv = 0; oldv < mv.rr.new_id_of.size(); ++oldv)
        if (mv.rr.new_id_of[oldv].valid())
          old_of[mv.rr.new_id_of[oldv].value()] =
              rct::NodeId{static_cast<unsigned>(oldv)};

      const auto stages =
          rct::decompose(mv.rr.tree, mv.buffers, lib);
      for (const rct::Stage& st : stages) {
        // Quick check: does this stage violate?
        const auto nz = noise::stage_noise(mv.rr.tree, st);
        bool bad = false;
        for (const rct::StageSink& s : st.sinks)
          if (nz.at(s.node) > s.noise_margin) bad = true;
        if (!bad) continue;
        all_clean = false;

        // Repair the stage in isolation with the noise-constrained DP
        // (generous RAT: only noise matters here), then merge the new
        // repeaters back onto the base tree.
        const auto extracted =
            rct::extract_stage(mv.rr.tree, st, /*default_rat=*/1.0);
        VgOptions vopt;
        vopt.noise_constraints = true;
        vopt.objective = VgObjective::MinBuffersMeetingConstraints;
        const auto fix = optimize(extracted.tree, lib, vopt);
        NBUF_ASSERT_MSG(fix.feasible,
                        "stage repair must succeed on a segmented stage");
        for (const auto& [node, type] : fix.buffers.entries()) {
          (void)type;
          NBUF_ASSERT_MSG(node.value() < extracted.orig_of.size(),
                          "repair landed on a binarization dummy");
          const rct::NodeId in_mode = extracted.orig_of[node.value()];
          const rct::NodeId in_base = old_of[in_mode.value()];
          NBUF_ASSERT_MSG(in_base.valid(),
                          "repair landed on a synthetic node");
          // Always insert the chosen bidirectional repeater type: its
          // minimal resistance keeps progress monotone across modes.
          result.repeaters.place(in_base, rep);
        }
      }
    }
    if (all_clean) break;
  }

  // Final verdict.
  const auto reports = analyze_modes(result.tree, result.repeaters, lib,
                                     modes, options.source_as_sink);
  result.feasible = true;
  result.mode_worst_slack.reserve(reports.size());
  for (const auto& r : reports) {
    result.mode_worst_slack.push_back(r.worst_slack);
    if (!r.clean()) result.feasible = false;
  }
  return result;
}

}  // namespace nbuf::core
