// The linter lints itself — unit tests for tools/lint/ (the shared lexer
// and the token-sequence rule engine behind nbuf_lint).
//
// The fixture corpus in tests/data/lint/ carries one seeded violation and
// one clean (or suppressed) file per rule; each seeded finding is asserted
// at its exact file:line. Two fixtures pin the v1 regressions that
// motivated the lexer: raw-string blindness (raw_string_regression.cpp)
// and suppression markers honored inside string literals
// (suppression_in_string.cpp). Fixtures are linted, never compiled, so
// they may reference headers that do not exist.
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "lint/lexer.hpp"
#include "lint/rules.hpp"

namespace {

using nbuf::lint::FileInput;
using nbuf::lint::Finding;
using nbuf::lint::lex;
using nbuf::lint::lint_file;
using nbuf::lint::Tok;
using nbuf::lint::Token;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(NBUF_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Lints one fixture as if it lived at `rel_path` inside the repo (the
// rule engine gates on the repo-relative path, exactly like the driver).
std::vector<Finding> lint_fixture(const std::string& name,
                                  const std::string& rel_path) {
  FileInput in;
  in.rel_path = rel_path;
  in.content = read_fixture(name);
  return lint_file(in);
}

// Every expected (line, rule) pair must be reported, in order, and
// nothing else — fixture findings are exact, not a subset.
void expect_findings(
    const std::vector<Finding>& got,
    const std::vector<std::pair<std::size_t, std::string>>& want) {
  ASSERT_EQ(got.size(), want.size()) << [&] {
    std::ostringstream ss;
    for (const Finding& f : got)
      ss << "  " << f.file << ":" << f.line << ": " << f.rule << "\n";
    return ss.str();
  }();
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].line, want[i].first) << "finding " << i;
    EXPECT_EQ(got[i].rule, want[i].second) << "finding " << i;
  }
}

// ---- lexer ---------------------------------------------------------------

std::vector<Token> tokens_of_kind(const std::vector<Token>& ts, Tok kind) {
  std::vector<Token> out;
  for (const Token& t : ts)
    if (t.kind == kind) out.push_back(t);
  return out;
}

TEST(LintLexer, RawStringIsOneTokenAndLinesAdvance) {
  const auto ts = lex("auto s = R\"x(line one\nline two)x\";\nint y;\n");
  const auto strings = tokens_of_kind(ts, Tok::String);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_EQ(strings[0].text, "R\"x(line one\nline two)x\"");
  EXPECT_EQ(strings[0].line, 1u);
  // The newline inside the raw string still counts: `int` is on line 3.
  bool saw_int = false;
  for (const Token& t : ts)
    if (t.kind == Tok::Identifier && t.text == "int") {
      saw_int = true;
      EXPECT_EQ(t.line, 3u);
    }
  EXPECT_TRUE(saw_int);
}

TEST(LintLexer, RawStringPrefixesFoldIntoTheToken) {
  const auto ts = lex("const char* p = u8R\"(a)\";");
  const auto strings = tokens_of_kind(ts, Tok::String);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_EQ(strings[0].text, "u8R\"(a)\"");
}

TEST(LintLexer, EscapedQuoteDoesNotEndTheString) {
  const auto ts = lex("const char* p = \"a\\\"b\"; int q;");
  const auto strings = tokens_of_kind(ts, Tok::String);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_EQ(strings[0].text, "\"a\\\"b\"");
  bool saw_q = false;
  for (const Token& t : ts)
    if (t.kind == Tok::Identifier && t.text == "q") saw_q = true;
  EXPECT_TRUE(saw_q);
}

TEST(LintLexer, UnterminatedStringEndsAtNewline) {
  const auto ts = lex("\"abc\nint x;");
  const auto strings = tokens_of_kind(ts, Tok::String);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_EQ(strings[0].text, "\"abc");
  bool saw_int = false;
  for (const Token& t : ts)
    if (t.kind == Tok::Identifier && t.text == "int") {
      saw_int = true;
      EXPECT_EQ(t.line, 2u);
    }
  EXPECT_TRUE(saw_int);
}

TEST(LintLexer, BlockCommentSpansLinesKeepsStartLine) {
  const auto ts = lex("/* a\nb\nc */ int x;");
  const auto comments = tokens_of_kind(ts, Tok::Comment);
  ASSERT_EQ(comments.size(), 1u);
  EXPECT_EQ(comments[0].line, 1u);
  for (const Token& t : ts)
    if (t.kind == Tok::Identifier && t.text == "int") {
      EXPECT_EQ(t.line, 3u);
    }
}

TEST(LintLexer, DigitSeparatorsStayInOneNumber) {
  const auto ts = lex("long x = 1'000'000;");
  const auto numbers = tokens_of_kind(ts, Tok::Number);
  ASSERT_EQ(numbers.size(), 1u);
  EXPECT_EQ(numbers[0].text, "1'000'000");
}

TEST(LintLexer, ScopeAndArrowAreSingleTokens) {
  const auto ts = lex("a::b->c >> d");
  std::vector<std::string> puncts;
  for (const Token& t : ts)
    if (t.kind == Tok::Punct) puncts.push_back(std::string(t.text));
  // '>' stays single so template-angle depth counting is uniform.
  const std::vector<std::string> want = {"::", "->", ">", ">"};
  EXPECT_EQ(puncts, want);
}

TEST(LintLexer, DirectiveFlagCoversContinuationLines) {
  const auto ts = lex("#define M(a) \\\n  (a + 1)\nint y;");
  for (const Token& t : ts) {
    // The backslash continuation keeps line 2 inside the directive;
    // line 3 is ordinary code again.
    if (t.line <= 2)
      EXPECT_TRUE(t.in_directive) << "token '" << t.text << "'";
    else
      EXPECT_FALSE(t.in_directive) << "token '" << t.text << "'";
  }
}

TEST(LintLexer, CharLiteralsWithEscapes) {
  const auto ts = lex("char c = 'x'; char n = '\\n';");
  const auto chars = tokens_of_kind(ts, Tok::CharLit);
  ASSERT_EQ(chars.size(), 2u);
  EXPECT_EQ(chars[0].text, "'x'");
  EXPECT_EQ(chars[1].text, "'\\n'");
}

// ---- rule fixtures: one seeded + one clean per rule ----------------------

TEST(LintRules, SortSeeded) {
  expect_findings(lint_fixture("sort_bad.cpp", "src/io/fixture.cpp"),
                  {{5, "sort"}});
}
TEST(LintRules, SortSuppressed) {
  expect_findings(lint_fixture("sort_clean.cpp", "src/io/fixture.cpp"), {});
}
TEST(LintRules, SortWhitelistedKernelFile) {
  // The reference kernel keeps its textbook std::sort without a marker.
  expect_findings(lint_fixture("sort_bad.cpp", "src/core/vanginneken.cpp"),
                  {});
}

TEST(LintRules, NakedNewSeeded) {
  expect_findings(lint_fixture("naked_new_bad.cpp", "src/io/fixture.cpp"),
                  {{3, "naked-new"}, {4, "naked-new"}, {5, "naked-new"}});
}
TEST(LintRules, NakedNewCleanDeletedMembers) {
  expect_findings(lint_fixture("naked_new_clean.cpp", "src/io/fixture.cpp"),
                  {});
}

TEST(LintRules, IostreamSeeded) {
  expect_findings(lint_fixture("iostream_bad.cpp", "src/io/fixture.cpp"),
                  {{1, "iostream"}});
}
TEST(LintRules, IostreamCleanInCommentAndString) {
  expect_findings(lint_fixture("iostream_clean.cpp", "src/io/fixture.cpp"),
                  {});
}
TEST(LintRules, IostreamAllowedOutsideSrc) {
  expect_findings(lint_fixture("iostream_bad.cpp", "tools/fixture.cpp"), {});
}

TEST(LintRules, PragmaOnceSeeded) {
  expect_findings(lint_fixture("pragma_once_bad.hpp", "src/util/fixture.hpp"),
                  {{1, "pragma-once"}});
}
TEST(LintRules, PragmaOnceClean) {
  expect_findings(
      lint_fixture("pragma_once_clean.hpp", "src/util/fixture.hpp"), {});
}

TEST(LintRules, NoFloatSeeded) {
  expect_findings(lint_fixture("no_float_bad.cpp", "src/noise/fixture.cpp"),
                  {{2, "no-float"}, {2, "no-float"}});
}
TEST(LintRules, NoFloatCleanInCommentAndString) {
  expect_findings(lint_fixture("no_float_clean.cpp", "src/noise/fixture.cpp"),
                  {});
}
TEST(LintRules, NoFloatOnlyGatesNumericDirs) {
  expect_findings(lint_fixture("no_float_bad.cpp", "src/io/fixture.cpp"), {});
}

TEST(LintRules, UnorderedIterSeeded) {
  expect_findings(
      lint_fixture("unordered_iter_bad.cpp", "src/rct/fixture.cpp"),
      {{9, "unordered-iter"}, {10, "unordered-iter"}});
}
TEST(LintRules, UnorderedIterCleanLookupsAndOrderedMap) {
  expect_findings(
      lint_fixture("unordered_iter_clean.cpp", "src/rct/fixture.cpp"), {});
}
TEST(LintRules, UnorderedIterSeesSiblingHeaderMembers) {
  FileInput in;
  in.rel_path = "src/x/registry.cpp";
  in.header_content =
      "#pragma once\n#include <unordered_map>\n"
      "struct Registry { std::unordered_map<int, int> members; };\n";
  in.content =
      "#include \"registry.hpp\"\n"
      "int sum(const Registry& r) {\n"
      "  int s = 0;\n"
      "  for (const auto& kv : r.members) s += kv.second;\n"
      "  return s;\n"
      "}\n";
  expect_findings(lint_file(in), {{4, "unordered-iter"}});
}

// The members of any src/ header a file includes count, not just the
// sibling header's: the fixture iterates StageCircuit::sim_node_of, declared
// in cross_header/sim/stage_circuit.hpp (standing in for src/), from a file
// in another directory. The include that resolves nowhere is skipped.
std::vector<Finding> lint_with_includes(const std::string& name) {
  const std::string dir = NBUF_LINT_FIXTURE_DIR;
  FileInput in;
  in.rel_path = "src/signoff/fixture.cpp";
  in.content = read_fixture(name);
  in.header_content = nbuf::lint::read_included_headers(
      dir + "/cross_header", dir + "/" + name, in.content);
  return lint_file(in);
}
TEST(LintRules, UnorderedIterSeesMembersOfAnyIncludedSrcHeader) {
  expect_findings(lint_with_includes("unordered_cross_header_bad.cpp"),
                  {{7, "unordered-iter"}});
  // Without the included header's text the member is invisible.
  expect_findings(
      lint_fixture("unordered_cross_header_bad.cpp", "src/signoff/fixture.cpp"),
      {});
}
TEST(LintRules, UnorderedIterCrossHeaderCleanOrderedWalk) {
  expect_findings(lint_with_includes("unordered_cross_header_clean.cpp"), {});
}

TEST(LintRules, RawLockSeeded) {
  expect_findings(
      lint_fixture("raw_lock_bad.cpp", "src/serve/fixture.cpp"),
      {{4, "raw-lock"}, {6, "raw-lock"}, {9, "raw-lock"}, {11, "raw-lock"}});
}
TEST(LintRules, RawLockCleanScopedGuard) {
  expect_findings(lint_fixture("raw_lock_clean.cpp", "src/serve/fixture.cpp"),
                  {});
}
TEST(LintRules, RawLockExemptsTheAnnotationHeader) {
  // util::Mutex itself wraps std::mutex; the wrapper is the one place
  // allowed to touch the raw primitive.
  expect_findings(
      lint_fixture("raw_lock_bad.cpp", "src/util/thread_annotations.hpp"),
      {{1, "pragma-once"}});  // .hpp fixture reuse; only the header rule
}

TEST(LintRules, WallclockSeeded) {
  expect_findings(
      lint_fixture("wallclock_bad.cpp", "src/core/fixture.cpp"),
      {{5, "wallclock-in-core"}, {7, "wallclock-in-core"}});
}
TEST(LintRules, WallclockSuppressedAndMemberCallsIgnored) {
  expect_findings(lint_fixture("wallclock_clean.cpp", "src/core/fixture.cpp"),
                  {});
}
TEST(LintRules, WallclockOnlyGatesTheNumericCore) {
  expect_findings(lint_fixture("wallclock_bad.cpp", "src/obs/fixture.cpp"),
                  {});
}

TEST(LintRules, MutableGlobalSeeded) {
  expect_findings(
      lint_fixture("mutable_global_bad.cpp", "src/obs/fixture.cpp"),
      {{3, "mutable-global"}, {5, "mutable-global"}});
}
TEST(LintRules, MutableGlobalCleanConstantsTypesFunctions) {
  expect_findings(
      lint_fixture("mutable_global_clean.cpp", "src/obs/fixture.cpp"), {});
}

// ---- v1 regressions ------------------------------------------------------

TEST(LintRegression, RawStringContentIsNotCode) {
  // The std::sort inside the raw string must not be flagged; the marker
  // inside it must not suppress; the real call after it is at line 12.
  expect_findings(
      lint_fixture("raw_string_regression.cpp", "src/io/fixture.cpp"),
      {{12, "sort"}});
}

TEST(LintRegression, AllowMarkerInStringLiteralDoesNotSuppress) {
  // Line 8 carries the marker in a string literal — still flagged.
  // Line 9 carries it in a trailing comment — suppressed.
  expect_findings(
      lint_fixture("suppression_in_string.cpp", "src/io/fixture.cpp"),
      {{8, "sort"}});
}

}  // namespace
