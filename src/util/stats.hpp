// Small descriptive-statistics helpers used by the workload generator and
// the experiment harnesses, plus the VgStats counter block shared by the
// Van Ginneken DP (core/vanginneken) and the batch engine (batch/batch).
#pragma once

#include <cstddef>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace nbuf::util {

// Counters describing one Van Ginneken-style DP run (Li & Shi's lens on DP
// efficiency: how many candidates exist and how many pruning kills). Every
// field is exact and schedule-independent — a pure function of the input
// net and the options — so batch runs reproduce them at any thread count.
// Phase wall time is not kept here; trace spans (`--trace`) own it.
// Defined here, below core, so batch aggregation and CLI reporting need no
// dependency on the optimizer itself. Every field must have an entry in
// kVgStatsFields below, which drives aggregation, comparison, printing and
// metric export.
struct VgStats {
  std::size_t candidates_generated = 0;  // every candidate materialized
  std::size_t pruned_inferior = 0;       // (load, slack)-dominated (Step 7)
  std::size_t pruned_infeasible = 0;     // dead: noise slack went negative
  std::size_t merged = 0;                // produced by two-child merges
  std::size_t peak_list_size = 0;        // largest single candidate list
  // Kernel-path counters (fast kernel, PR 2). The fast kernel keeps every
  // candidate list sorted by (load asc, slack desc) across wire extension,
  // merge and buffer insertion, so pruning is normally one linear scan;
  // these record how often the sort actually had to run.
  std::size_t prune_calls = 0;  // prune passes over a list
  std::size_t prune_sorts = 0;  // passes that had to std::sort
  // Best-predecessor counters (fast kernel). The insertion step scans each
  // nonempty (phase, count) bucket once per buffer type for its best
  // predecessor; these record how many buckets were scanned and how many
  // scanned candidates were infeasible (noise/slew) for the lowest-R type,
  // hence for every type.
  std::size_t bp_prune_calls = 0;        // buckets scanned for insertion
  std::size_t bp_candidates_killed = 0;  // infeasible for every type
  std::size_t lib_types = 0;             // buffer-library size seen (max)
  // Fast-kernel prunes (a fused dead+Pareto scan or a buffer-tail fuse)
  // that killed nothing and skipped compaction entirely.
  std::size_t prunes_no_move = 0;

  // Aggregation over runs: each field adds or takes the max, per its
  // kVgStatsFields entry.
  VgStats& operator+=(const VgStats& o);
  // Equality of every field.
  [[nodiscard]] bool same_counters(const VgStats& o) const;
};

// One VgStats field: how it aggregates across runs and which
// nbuf-metrics-v1 instrument obs::record_vg_stats exports it as.
struct VgStatsField {
  enum class Agg { Sum, Max };
  enum class Metric { Counter, Histogram, Gauge };
  std::string_view name;  // the struct field's name, also format()'s label
  std::size_t VgStats::*member;
  Agg agg;
  Metric metric;
  std::string_view metric_name;
};

inline constexpr VgStatsField kVgStatsFields[] = {
    {"candidates_generated", &VgStats::candidates_generated,
     VgStatsField::Agg::Sum, VgStatsField::Metric::Counter,
     "vg.candidates_generated"},
    {"pruned_inferior", &VgStats::pruned_inferior, VgStatsField::Agg::Sum,
     VgStatsField::Metric::Counter, "vg.pruned_inferior"},
    {"pruned_infeasible", &VgStats::pruned_infeasible, VgStatsField::Agg::Sum,
     VgStatsField::Metric::Counter, "vg.pruned_infeasible"},
    {"merged", &VgStats::merged, VgStatsField::Agg::Sum,
     VgStatsField::Metric::Counter, "vg.merged"},
    {"peak_list_size", &VgStats::peak_list_size, VgStatsField::Agg::Max,
     VgStatsField::Metric::Histogram, "vg.peak_list_size"},
    {"prune_calls", &VgStats::prune_calls, VgStatsField::Agg::Sum,
     VgStatsField::Metric::Counter, "vg.prune_calls"},
    {"prune_sorts", &VgStats::prune_sorts, VgStatsField::Agg::Sum,
     VgStatsField::Metric::Counter, "vg.prune_sorts"},
    {"bp_prune_calls", &VgStats::bp_prune_calls, VgStatsField::Agg::Sum,
     VgStatsField::Metric::Counter, "vg.bp_prune_calls"},
    {"bp_candidates_killed", &VgStats::bp_candidates_killed,
     VgStatsField::Agg::Sum, VgStatsField::Metric::Counter,
     "vg.bp_candidates_killed"},
    {"lib_types", &VgStats::lib_types, VgStatsField::Agg::Max,
     VgStatsField::Metric::Gauge, "lib.types"},
    {"prunes_no_move", &VgStats::prunes_no_move, VgStatsField::Agg::Sum,
     VgStatsField::Metric::Counter, "vg.prunes_no_move"},
};

// A field added to VgStats without a table entry fails the build here.
static_assert(sizeof(VgStats) ==
                  std::size(kVgStatsFields) * sizeof(std::size_t),
              "every VgStats field needs a kVgStatsFields entry");

inline VgStats& VgStats::operator+=(const VgStats& o) {
  for (const VgStatsField& f : kVgStatsFields) {
    std::size_t& mine = this->*f.member;
    const std::size_t theirs = o.*f.member;
    if (f.agg == VgStatsField::Agg::Sum) {
      mine += theirs;
    } else if (theirs > mine) {
      mine = theirs;
    }
  }
  return *this;
}

inline bool VgStats::same_counters(const VgStats& o) const {
  for (const VgStatsField& f : kVgStatsFields)
    if (this->*f.member != o.*f.member) return false;
  return true;
}

// One-line rendering of every field in table order: "name value, ...".
[[nodiscard]] std::string format(const VgStats& s);

struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
};

// Descriptive summary of a sample; empty input yields a zeroed Summary.
[[nodiscard]] Summary summarize(const std::vector<double>& xs);

// p in [0, 1]; linear interpolation between order statistics.
[[nodiscard]] double percentile(std::vector<double> xs, double p);

// Bucketed histogram keyed by integer value (e.g. sink counts, buffer
// counts). Returns value -> occurrence count.
[[nodiscard]] std::map<int, std::size_t> histogram(const std::vector<int>& xs);

}  // namespace nbuf::util
