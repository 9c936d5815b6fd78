#include "lint/rules.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "lint/lexer.hpp"

namespace nbuf::lint {

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

// Shared per-file state every rule reads.
struct FileView {
  const FileInput* in = nullptr;
  std::vector<Token> all;            // full token stream (with comments)
  std::vector<Token> code;           // comments removed
  std::map<std::size_t, std::vector<std::string_view>> comments_by_line;

  bool in_src = false;
  bool numeric_src = false;    // src/noise|elmore|core|sim (no-float)
  bool wallclock_src = false;  // src/core|noise|elmore (wallclock-in-core)
  bool sort_whitelisted = false;
  bool annotation_header = false;
  bool is_header = false;

  std::vector<Finding>* findings = nullptr;

  // True when a comment starting on `line` carries the allow marker.
  [[nodiscard]] bool suppressed(std::size_t line,
                                std::string_view rule) const {
    const auto it = comments_by_line.find(line);
    if (it == comments_by_line.end()) return false;
    const std::string marker =
        std::string("nbuf-lint: allow(") + std::string(rule) + ")";
    for (const std::string_view c : it->second)
      if (c.find(marker) != std::string_view::npos) return true;
    return false;
  }

  void flag(std::size_t line, std::string_view rule, std::string message) {
    if (suppressed(line, rule)) return;
    findings->push_back(
        {in->rel_path, line, std::string(rule), std::move(message)});
  }
};

FileView make_view(const FileInput& in, std::vector<Finding>& findings) {
  FileView v;
  v.in = &in;
  v.findings = &findings;
  v.all = lex(in.content);
  v.code.reserve(v.all.size());
  for (const Token& t : v.all) {
    if (t.kind == Tok::Comment)
      v.comments_by_line[t.line].push_back(t.text);
    else
      v.code.push_back(t);
  }
  const std::string_view rel = in.rel_path;
  v.in_src = starts_with(rel, "src/");
  v.numeric_src = starts_with(rel, "src/noise/") ||
                  starts_with(rel, "src/elmore/") ||
                  starts_with(rel, "src/core/") ||
                  starts_with(rel, "src/sim/");
  v.wallclock_src = starts_with(rel, "src/core/") ||
                    starts_with(rel, "src/noise/") ||
                    starts_with(rel, "src/elmore/");
  v.sort_whitelisted = rel == "src/core/vanginneken.cpp";
  v.annotation_header = rel == "src/util/thread_annotations.hpp";
  v.is_header = rel.size() > 4 && rel.substr(rel.size() - 4) == ".hpp";
  return v;
}

const Token* at(const std::vector<Token>& ts, std::size_t i) {
  return i < ts.size() ? &ts[i] : nullptr;
}
bool is(const Token* t, std::string_view text) {
  return t != nullptr && t->text == text;
}
bool is_ident(const Token* t, std::string_view text) {
  return t != nullptr && t->kind == Tok::Identifier && t->text == text;
}

// ---- style / ownership rules (ported from nbuf_lint v1) -----------------

void rule_pragma_once(FileView& v) {
  if (!v.is_header) return;
  const std::vector<Token>& c = v.code;
  for (std::size_t i = 0; i + 2 < c.size(); ++i)
    if (c[i].in_directive && is(&c[i], "#") && is_ident(&c[i + 1], "pragma") &&
        is_ident(&c[i + 2], "once"))
      return;
  v.flag(1, "pragma-once", "header is missing #pragma once");
}

void rule_sort(FileView& v) {
  if (!v.in_src || v.sort_whitelisted) return;
  const std::vector<Token>& c = v.code;
  for (std::size_t i = 0; i + 3 < c.size(); ++i)
    if (is_ident(&c[i], "std") && is(&c[i + 1], "::") &&
        is_ident(&c[i + 2], "sort") && is(&c[i + 3], "("))
      v.flag(c[i].line, "sort",
             "std::sort outside the reference kernel; keep lists sorted "
             "incrementally or annotate why a full sort is required");
}

void rule_naked_new(FileView& v) {
  if (!v.in_src) return;
  const std::vector<Token>& c = v.code;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (is_ident(&c[i], "new"))
      v.flag(c[i].line, "naked-new",
             "naked new in library code; use containers or value semantics");
    if (is_ident(&c[i], "delete")) {
      // `= delete;` (deleted special member) is fine; an expression is not.
      if (i > 0 && c[i - 1].text == "=") continue;
      v.flag(c[i].line, "naked-new",
             "naked delete in library code; ownership belongs to "
             "containers or value types");
    }
  }
}

void rule_iostream(FileView& v) {
  if (!v.in_src) return;
  const std::vector<Token>& c = v.code;
  for (std::size_t i = 0; i + 4 < c.size(); ++i)
    if (c[i].in_directive && is(&c[i], "#") &&
        is_ident(&c[i + 1], "include") && is(&c[i + 2], "<") &&
        is_ident(&c[i + 3], "iostream") && is(&c[i + 4], ">"))
      v.flag(c[i].line, "iostream",
             "<iostream> in library code; printing belongs to tools/ "
             "and bench/");
}

void rule_no_float(FileView& v) {
  if (!v.numeric_src) return;
  for (const Token& t : v.code)
    if (is_ident(&t, "float"))
      v.flag(t.line, "no-float",
             "float in noise/delay math; all electrical arithmetic must "
             "be double");
}

// ---- determinism / concurrency rules ------------------------------------

// Names declared in `tokens` with std::unordered_map/unordered_set type:
// after the closing '>' of the template argument list, past any &/*/const,
// an identifier not followed by '(' is a variable (or member) name.
void collect_unordered_names(const std::vector<Token>& tokens,
                             std::set<std::string_view, std::less<>>& out) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (!is_ident(&tokens[i], "unordered_map") &&
        !is_ident(&tokens[i], "unordered_set"))
      continue;
    std::size_t j = i + 1;
    if (!is(at(tokens, j), "<")) continue;
    std::size_t depth = 1;
    for (++j; j < tokens.size() && depth > 0; ++j) {
      if (tokens[j].text == "<") ++depth;
      if (tokens[j].text == ">") --depth;
    }
    if (depth != 0) continue;
    while (j < tokens.size() &&
           (tokens[j].text == "&" || tokens[j].text == "*" ||
            tokens[j].text == "const"))
      ++j;
    const Token* name = at(tokens, j);
    if (name == nullptr || name->kind != Tok::Identifier) continue;
    if (is(at(tokens, j + 1), "(")) continue;  // function return type
    out.insert(name->text);
  }
}

void rule_unordered_iter(FileView& v) {
  if (!v.in_src) return;
  std::set<std::string_view, std::less<>> unordered;
  collect_unordered_names(v.code, unordered);
  // Members declared in included headers are iterable from this file. The
  // token views borrow header_tokens, so keep that alive for the scan.
  const std::vector<Token> header_tokens = lex(v.in->header_content);
  collect_unordered_names(header_tokens, unordered);
  if (unordered.empty()) return;

  const std::vector<Token>& c = v.code;
  for (std::size_t i = 0; i + 1 < c.size(); ++i) {
    // Range-for whose range expression mentions an unordered variable.
    if (is_ident(&c[i], "for") && is(&c[i + 1], "(")) {
      std::size_t depth = 1;
      std::size_t colon = 0;
      std::size_t j = i + 2;
      for (; j < c.size() && depth > 0; ++j) {
        const std::string_view t = c[j].text;
        if (t == "(") ++depth;
        if (t == ")") --depth;
        if (depth == 1 && t == ";") break;  // classic for — no range
        if (depth == 1 && t == ":" && colon == 0) colon = j;
      }
      if (colon != 0) {
        for (std::size_t k = colon + 1; k < j; ++k)
          if (c[k].kind == Tok::Identifier &&
              unordered.count(c[k].text) != 0) {
            v.flag(c[i].line, "unordered-iter",
                   "iteration over unordered container '" +
                       std::string(c[k].text) +
                       "' — order is unspecified; drain into a sorted "
                       "vector or use an ordered container");
            break;
          }
      }
    }
    // Iterator-based traversal: name.begin() / name.cbegin().
    if (c[i].kind == Tok::Identifier && unordered.count(c[i].text) != 0 &&
        is(&c[i + 1], ".") &&
        (is_ident(at(c, i + 2), "begin") || is_ident(at(c, i + 2), "cbegin")) &&
        is(at(c, i + 3), "("))
      v.flag(c[i].line, "unordered-iter",
             "iterator over unordered container '" + std::string(c[i].text) +
                 "' — order is unspecified; drain into a sorted vector "
                 "or use an ordered container");
  }
}

void rule_raw_lock(FileView& v) {
  if (!v.in_src || v.annotation_header) return;
  const std::vector<Token>& c = v.code;
  for (std::size_t i = 0; i + 2 < c.size(); ++i) {
    if (c[i].text != "." && c[i].text != "->") continue;
    const Token* m = &c[i + 1];
    if (!is_ident(m, "lock") && !is_ident(m, "unlock") &&
        !is_ident(m, "try_lock"))
      continue;
    if (!is(&c[i + 2], "(")) continue;
    v.flag(m->line, "raw-lock",
           "raw ." + std::string(m->text) +
               "() call; take locks through util::MutexLock so the "
               "thread-safety analysis sees the acquisition");
  }
}

void rule_wallclock_in_core(FileView& v) {
  if (!v.wallclock_src) return;
  const std::vector<Token>& c = v.code;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if ((is_ident(&c[i], "steady_clock") || is_ident(&c[i], "system_clock") ||
         is_ident(&c[i], "high_resolution_clock")) &&
        is(at(c, i + 1), "::") && is_ident(at(c, i + 2), "now")) {
      v.flag(c[i].line, "wallclock-in-core",
             "clock read in the numeric core; results must not depend "
             "on time");
      continue;
    }
    // C time()/clock() calls — not member calls on some object.
    if ((is_ident(&c[i], "time") || is_ident(&c[i], "clock")) &&
        is(at(c, i + 1), "(")) {
      if (i > 0 && (c[i - 1].text == "." || c[i - 1].text == "->")) continue;
      v.flag(c[i].line, "wallclock-in-core",
             "clock read in the numeric core; results must not depend "
             "on time");
    }
  }
}

// Namespace-scope mutable state. Walks the token stream with a scope
// stack; anything inside a non-namespace brace pair (function bodies,
// classes, initializers) is skipped wholesale, so only true file/namespace
// scope statements are classified.
void rule_mutable_global(FileView& v) {
  if (!v.in_src) return;
  static constexpr std::string_view kSkipKeywords[] = {
      "using",    "typedef",  "namespace", "template", "concept",
      "friend",   "static_assert",         "extern",   "operator",
      "class",    "struct",   "union",     "enum",     "asm",
      "requires",
  };
  static constexpr std::string_view kConstKeywords[] = {"const", "constexpr",
                                                        "constinit"};
  const std::vector<Token>& c = v.code;
  std::vector<const Token*> stmt;
  bool stmt_had_braces = false;

  const auto process = [&](const std::vector<const Token*>& s,
                           bool had_braces) {
    if (s.empty()) return;
    for (const Token* t : s) {
      if (t->kind != Tok::Identifier) continue;
      for (const std::string_view k : kSkipKeywords)
        if (t->text == k) return;
      for (const std::string_view k : kConstKeywords)
        if (t->text == k) return;
    }
    std::size_t first_paren = s.size(), first_eq = s.size();
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i]->text == "(" && first_paren == s.size()) first_paren = i;
      if (s[i]->text == "=" && first_eq == s.size()) first_eq = i;
    }
    // `int f(...)` / `MACRO(...)`: a '(' before any '=' is a function
    // declaration or call, not a variable — unless the statement carried
    // a brace initializer (then the '(' is inside the declarator type).
    if (!had_braces && first_paren < first_eq) return;
    const std::size_t limit = std::min(first_eq, s.size());
    for (std::size_t i = limit; i-- > 0;) {
      if (s[i]->kind != Tok::Identifier) continue;
      v.flag(s[i]->line, "mutable-global",
             "namespace-scope mutable state '" + std::string(s[i]->text) +
                 "'; pass state explicitly, make it const, or justify "
                 "with a documented allow marker");
      return;
    }
  };

  std::size_t ns_depth = 0;  // enclosing braces are all namespaces
  for (std::size_t i = 0; i < c.size(); ++i) {
    const Token& t = c[i];
    if (t.in_directive) continue;
    if (t.text == "{") {
      bool is_namespace = false;
      for (const Token* s : stmt)
        if (s->kind == Tok::Identifier && s->text == "namespace")
          is_namespace = true;
      if (is_namespace) {
        ++ns_depth;
        stmt.clear();
        continue;
      }
      // Non-namespace scope: skip to the matching close brace.
      std::size_t depth = 1;
      for (++i; i < c.size() && depth > 0; ++i) {
        if (c[i].in_directive) continue;
        if (c[i].text == "{") ++depth;
        if (c[i].text == "}") --depth;
      }
      --i;
      if (is(at(c, i + 1), ";")) {
        stmt_had_braces = true;  // brace-initialized declaration
      } else {
        stmt.clear();  // function body / type definition
        stmt_had_braces = false;
      }
      continue;
    }
    if (t.text == "}") {
      if (ns_depth > 0) --ns_depth;
      stmt.clear();
      stmt_had_braces = false;
      continue;
    }
    if (t.text == ";") {
      process(stmt, stmt_had_braces);
      stmt.clear();
      stmt_had_braces = false;
      continue;
    }
    stmt.push_back(&t);
  }
}

}  // namespace

std::string read_included_headers(const std::filesystem::path& src_root,
                                  const std::filesystem::path& file,
                                  std::string_view content) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path root = fs::weakly_canonical(src_root, ec);
  const auto under_root = [&root](const fs::path& p) {
    const fs::path rel = p.lexically_relative(root);
    return !rel.empty() && *rel.begin() != "..";
  };
  std::string out;
  const std::vector<Token> ts = lex(content);
  for (std::size_t i = 0; i + 2 < ts.size(); ++i) {
    if (!ts[i].in_directive || !is(&ts[i], "#") ||
        !is_ident(&ts[i + 1], "include") || ts[i + 2].kind != Tok::String)
      continue;
    const std::string_view quoted = ts[i + 2].text;
    if (quoted.size() < 2 || quoted.front() != '"') continue;
    const fs::path target(std::string(quoted.substr(1, quoted.size() - 2)));
    for (const fs::path& base : {file.parent_path(), src_root}) {
      const fs::path p = fs::weakly_canonical(base / target, ec);
      if (ec || !fs::is_regular_file(p) || !under_root(p)) continue;
      std::ifstream in(p, std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      out += ss.str();
      out += '\n';
      break;
    }
  }
  return out;
}

std::vector<Finding> lint_file(const FileInput& in) {
  std::vector<Finding> findings;
  FileView v = make_view(in, findings);
  rule_pragma_once(v);
  rule_sort(v);
  rule_naked_new(v);
  rule_iostream(v);
  rule_no_float(v);
  rule_unordered_iter(v);
  rule_raw_lock(v);
  rule_wallclock_in_core(v);
  rule_mutable_global(v);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

}  // namespace nbuf::lint
