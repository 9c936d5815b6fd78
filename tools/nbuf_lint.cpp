// nbuf_lint — dependency-free project linter, wired into ctest.
//
//   nbuf_lint <repo-root>
//
// Walks src/, tools/ and bench/ and enforces the project's mechanical
// style and determinism contracts that neither the compiler nor
// clang-tidy expresses. The rules, their rationale, and the suppression
// policy live in tools/lint/rules.hpp and docs/quality.md; the token
// stream they match over comes from tools/lint/lexer.hpp (v2 — the
// per-line regex scanner could not see raw strings or multi-line
// literals, and honored suppression markers inside string literals).
//
// A finding on one line is suppressed by a marker in a comment that
// starts on that line:
//
//   std::sort(v.begin(), v.end());  // nbuf-lint: allow(sort)
//
// Exit status: 0 when clean, 1 with findings (one "file:line: rule:
// message" diagnostic per finding), 2 on usage errors.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/rules.hpp"

namespace {

namespace fs = std::filesystem;

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <repo-root>\n", argv[0]);
    return 2;
  }
  const fs::path root = argv[1];
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "%s: not a directory\n", argv[1]);
    return 2;
  }

  std::vector<nbuf::lint::Finding> findings;
  std::size_t files = 0;
  for (const char* top : {"src", "tools", "bench"}) {
    const fs::path dir = root / top;
    if (!fs::is_directory(dir)) continue;
    for (const fs::directory_entry& e :
         fs::recursive_directory_iterator(dir)) {
      if (!e.is_regular_file()) continue;
      const fs::path ext = e.path().extension();
      if (ext != ".cpp" && ext != ".hpp") continue;
      ++files;
      nbuf::lint::FileInput in;
      in.rel_path = fs::relative(e.path(), root).generic_string();
      if (!read_file(e.path(), in.content)) {
        findings.push_back({in.rel_path, 0, "io", "cannot open file"});
        continue;
      }
      // Declarations of every src/ header this file includes are visible
      // to it; unordered-iter tracks their members too.
      in.header_content =
          nbuf::lint::read_included_headers(root / "src", e.path(), in.content);
      std::vector<nbuf::lint::Finding> f = nbuf::lint::lint_file(in);
      findings.insert(findings.end(), f.begin(), f.end());
    }
  }

  for (const nbuf::lint::Finding& f : findings)
    std::fprintf(stderr, "%s:%zu: %s: %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  std::printf("nbuf_lint: %zu file(s), %zu finding(s)\n", files,
              findings.size());
  return findings.empty() ? 0 : 1;
}
