// nbuf_lint rule engine — token-sequence rules over tools/lint/lexer.hpp.
//
// Nine rules enforce the project's mechanical style and determinism
// contracts (docs/quality.md has rationale and the suppression policy):
//
//   style / ownership (since PR 4):
//     sort              std::sort in src/ outside the reference kernel
//     naked-new         new/delete expressions in library code
//     iostream          #include <iostream> in library code
//     pragma-once       every header must carry #pragma once
//     no-float          `float` in noise/delay math (double only)
//
//   determinism / concurrency (this layer):
//     unordered-iter    range-for or .begin() iteration over a variable
//                       declared std::unordered_map/std::unordered_set in
//                       src/ (in the file or any src/ header it includes)
//                       — iteration order is unspecified
//     raw-lock          .lock()/.unlock()/.try_lock() member calls outside
//                       src/util/thread_annotations.hpp — locking goes
//                       through util::MutexLock so Clang's thread-safety
//                       analysis sees every acquisition
//     wallclock-in-core clock reads (std::chrono ...::now, time(, clock()
//                       in src/core, src/noise, src/elmore — results must
//                       not depend on time
//     mutable-global    non-const namespace-scope mutable state in src/
//
// A finding is suppressed by `nbuf-lint: allow(<rule>)` appearing inside a
// comment token that starts on the finding's line — markers inside string
// literals or on other lines are ignored.
#pragma once

#include <array>
#include <cstddef>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace nbuf::lint {

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

// One file to lint. `rel_path` (repo-relative, '/' separators) selects
// which rules apply; `header_content` optionally carries the text of the
// src/ headers the file includes (read_included_headers) so unordered-iter
// can see member declarations the file iterates over. Empty when there
// are none.
struct FileInput {
  std::string rel_path;
  std::string content;
  std::string header_content;
};

// The concatenated text of every quoted `#include "…"` of `content` (the
// file at `file`) that resolves to a file under `src_root` — looked up
// next to `file` first, then relative to `src_root`, as the compiler's
// quoted-include search does with src/ on the include path. Includes that
// resolve nowhere under `src_root` (system, tools/, missing) are skipped.
[[nodiscard]] std::string read_included_headers(
    const std::filesystem::path& src_root, const std::filesystem::path& file,
    std::string_view content);

inline constexpr std::array<std::string_view, 9> kRuleNames = {
    "sort",           "naked-new", "iostream",
    "pragma-once",    "no-float",  "unordered-iter",
    "raw-lock",       "wallclock-in-core", "mutable-global",
};

// Runs every applicable rule over one file; findings are in line order.
[[nodiscard]] std::vector<Finding> lint_file(const FileInput& in);

}  // namespace nbuf::lint
