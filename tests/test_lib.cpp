#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <vector>

#include "common/random_library.hpp"
#include "io/libfile.hpp"
#include "lib/buffer.hpp"
#include "lib/technology.hpp"
#include "util/units.hpp"

namespace {

using namespace nbuf;
using namespace nbuf::units;

lib::BufferType make_type(const char* name, double r, bool inv = false) {
  return lib::BufferType{name, r, 10.0 * fF, 20.0 * ps, 0.8, inv};
}

TEST(BufferLibrary, AddAndAccess) {
  lib::BufferLibrary l;
  const auto id = l.add(make_type("b1", 100.0));
  EXPECT_EQ(l.size(), 1u);
  EXPECT_EQ(l.at(id).name, "b1");
  EXPECT_DOUBLE_EQ(l.at(id).resistance, 100.0);
}

TEST(BufferLibrary, RejectsDuplicateNames) {
  lib::BufferLibrary l;
  l.add(make_type("b", 100.0));
  EXPECT_THROW(l.add(make_type("b", 200.0)), std::invalid_argument);
}

TEST(BufferLibrary, RejectsNonPositiveParameters) {
  lib::BufferLibrary l;
  auto bad = make_type("x", 0.0);
  EXPECT_THROW(l.add(bad), std::invalid_argument);
  bad = make_type("x", 100.0);
  bad.input_cap = 0.0;
  EXPECT_THROW(l.add(bad), std::invalid_argument);
  bad = make_type("x", 100.0);
  bad.noise_margin = 0.0;
  EXPECT_THROW(l.add(bad), std::invalid_argument);
}

TEST(BufferLibrary, StrongestIsSmallestResistance) {
  lib::BufferLibrary l;
  l.add(make_type("weak", 900.0));
  const auto strong = l.add(make_type("strong", 50.0));
  l.add(make_type("mid", 300.0));
  EXPECT_EQ(l.strongest(), strong);
}

TEST(BufferLibrary, IdsEnumerateInOrder) {
  lib::BufferLibrary l;
  l.add(make_type("a", 1.0));
  l.add(make_type("b", 2.0));
  const auto ids = l.ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(l.at(ids[0]).name, "a");
  EXPECT_EQ(l.at(ids[1]).name, "b");
}

TEST(BufferLibrary, EmptyLibraryThrowsOnQueries) {
  lib::BufferLibrary l;
  EXPECT_TRUE(l.empty());
  EXPECT_THROW((void)l.strongest(), std::invalid_argument);
}

TEST(DefaultLibrary, HasPaperShape) {
  const auto l = lib::default_library();
  EXPECT_EQ(l.size(), 11u);  // Section V: 5 inverting + 6 non-inverting
  std::size_t inverting = 0;
  for (const auto& t : l.types()) {
    if (t.inverting) ++inverting;
    EXPECT_DOUBLE_EQ(t.noise_margin, 0.8);  // NM = 0.8 V for every gate
    EXPECT_GT(t.resistance, 0.0);
    EXPECT_GT(t.input_cap, 0.0);
  }
  EXPECT_EQ(inverting, 5u);
}

TEST(DefaultLibrary, StrengthLadderIsMonotone) {
  // Within each family, stronger buffers have lower R and higher C_in.
  const auto l = lib::default_library();
  double prev_r = 1e9, prev_c = 0.0;
  for (const auto& t : l.types()) {
    if (t.inverting) {
      EXPECT_LT(t.resistance, prev_r);
      EXPECT_GT(t.input_cap, prev_c);
      prev_r = t.resistance;
      prev_c = t.input_cap;
    }
  }
}

TEST(SingleBufferLibrary, HasOneNonInvertingType) {
  const auto l = lib::single_buffer_library();
  ASSERT_EQ(l.size(), 1u);
  EXPECT_FALSE(l.types().front().inverting);
}

TEST(Technology, DefaultValidates) {
  const auto t = lib::default_technology();
  EXPECT_NO_THROW(t.validate());
  EXPECT_DOUBLE_EQ(t.coupling_ratio, 0.7);
  EXPECT_DOUBLE_EQ(t.vdd, 1.8);
}

TEST(Technology, AggressorSlopeIsPaperValue) {
  // 1.8 V / 0.25 ns = 7.2 V/ns.
  const auto t = lib::default_technology();
  EXPECT_NEAR(t.aggressor_slope(), 7.2e9, 1e3);
}

TEST(Technology, WireHelpersScaleLinearly) {
  const auto t = lib::default_technology();
  EXPECT_DOUBLE_EQ(t.wire_res(2000.0), 2.0 * t.wire_res(1000.0));
  EXPECT_DOUBLE_EQ(t.wire_cap(2000.0), 2.0 * t.wire_cap(1000.0));
  EXPECT_DOUBLE_EQ(t.wire_coupling_current(2000.0),
                   2.0 * t.wire_coupling_current(1000.0));
}

TEST(Technology, CouplingCurrentMatchesEq6) {
  // i = lambda * c * mu per unit length (eq. 6).
  const auto t = lib::default_technology();
  const double expected =
      t.coupling_ratio * t.wire_cap_per_um * t.aggressor_slope();
  EXPECT_DOUBLE_EQ(t.coupling_current_per_um(), expected);
}

TEST(Technology, ValidateRejectsBadRatio) {
  auto t = lib::default_technology();
  t.coupling_ratio = 1.0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

// --- synthetic ladder libraries (PR 6) --------------------------------------

TEST(LadderLibrary, StrengthLadderIsStrictlyMonotone) {
  for (const std::size_t b : {1u, 2u, 8u, 64u}) {
    const auto ladder = lib::make_ladder_library(b, 0.45);
    ASSERT_EQ(ladder.size(), b);
    EXPECT_GE(ladder.size() - ladder.inverting_count(), 1u);
    for (std::size_t i = 1; i < b; ++i) {
      const auto& prev = ladder.at(lib::BufferId{
          static_cast<lib::BufferId::underlying_type>(i - 1)});
      const auto& cur = ladder.at(
          lib::BufferId{static_cast<lib::BufferId::underlying_type>(i)});
      EXPECT_LT(cur.resistance, prev.resistance) << "i=" << i;
      EXPECT_GT(cur.input_cap, prev.input_cap) << "i=" << i;
    }
  }
}

TEST(LadderLibrary, FindLocatesEveryTypeByName) {
  const auto ladder = lib::make_ladder_library(16, 0.5);
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const lib::BufferId id{static_cast<lib::BufferId::underlying_type>(i)};
    const auto found = ladder.find(ladder.at(id).name);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, id);
  }
  EXPECT_FALSE(ladder.find("no-such-type").has_value());
}

TEST(LadderLibrary, InvertingFractionIsHonored) {
  const auto half = lib::make_ladder_library(32, 0.5);
  EXPECT_EQ(half.inverting_count(), 16u);
  const auto none = lib::make_ladder_library(32, 0.0);
  EXPECT_EQ(none.inverting_count(), 0u);
}

// --- .lib file round-trip and corpus (PR 6) ---------------------------------

TEST(LibFile, ReadParsesUnitsAndPolarity) {
  std::istringstream in(
      "# comment\n"
      "library demo\n"
      "buffer b1 600 12 25 0.8\n"
      "buffer i1 300 24.5 30 0.75 inverting  # trailing comment\n");
  const io::LibFile f = io::read_library(in);
  EXPECT_EQ(f.name, "demo");
  ASSERT_EQ(f.library.size(), 2u);
  const auto& b1 = f.library.at(lib::BufferId{0});
  EXPECT_DOUBLE_EQ(b1.resistance, 600.0);
  EXPECT_DOUBLE_EQ(b1.input_cap, 12.0 * fF);
  EXPECT_DOUBLE_EQ(b1.intrinsic_delay, 25.0 * ps);
  EXPECT_DOUBLE_EQ(b1.noise_margin, 0.8);
  EXPECT_FALSE(b1.inverting);
  EXPECT_TRUE(f.library.at(lib::BufferId{1}).inverting);
}

TEST(LibFile, WriteReadWriteIsByteIdentical) {
  // 17-digit output: write(read(write(x))) == write(x) byte for byte, for
  // randomized real-valued libraries.
  const auto original = nbuf::test::random_library(0x11B, 13, 0.4);
  std::ostringstream first;
  io::write_library(first, "rt", original);
  std::istringstream back(first.str());
  const io::LibFile reread = io::read_library(back);
  EXPECT_EQ(reread.name, "rt");
  std::ostringstream second;
  io::write_library(second, reread.name, reread.library);
  EXPECT_EQ(second.str(), first.str());
}

TEST(LibFileCorpus, EveryCorruptFileThrowsParseError) {
  // Mirrors NetFileCorpus (test_io): every malformed .lib must be rejected
  // with a structured ParseError carrying a usable line number — never a
  // crash, hang, or silent accept.
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const fs::directory_entry& e : fs::directory_iterator(NBUF_CORRUPT_DIR))
    if (e.is_regular_file() && e.path().extension() == ".lib")
      files.push_back(e.path());
  ASSERT_GE(files.size(), 8u) << "corrupt .lib corpus went missing";
  for (const fs::path& p : files) {
    try {
      (void)io::read_library_file(p.string());
      FAIL() << p.filename() << ": parser accepted a corrupt library";
    } catch (const io::ParseError& e) {
      EXPECT_GE(e.line(), 1u) << p.filename();
      EXPECT_STRNE(e.what(), "") << p.filename();
    } catch (const std::exception& e) {
      FAIL() << p.filename() << ": wrong exception type: " << e.what();
    }
  }
}

}  // namespace
