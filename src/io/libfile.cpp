#include "io/libfile.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "util/units.hpp"

namespace nbuf::io {

using namespace nbuf::units;

namespace {

// Same parse bound as the .net parser: reject non-finite and absurd values
// at the boundary, with a line number, before they can defeat the
// finiteness contracts of the DP.
constexpr double kMaxMagnitude = 1e12;

struct Parser {
  LibFile out;
  bool have_name = false;
  std::size_t lineno = 0;

  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(lineno, msg);
  }

  double num(std::istringstream& ss, const char* what) {
    double v = 0.0;
    if (!(ss >> v)) fail(std::string("expected number for ") + what);
    if (!std::isfinite(v) || v < -kMaxMagnitude || v > kMaxMagnitude)
      fail(std::string("non-finite or out-of-range value for ") + what);
    return v;
  }

  std::string word(std::istringstream& ss, const char* what) {
    std::string w;
    if (!(ss >> w)) fail(std::string("expected ") + what);
    return w;
  }

  void line_library(std::istringstream& ss) {
    if (have_name) fail("duplicate library line");
    out.name = word(ss, "library name");
    have_name = true;
  }

  void line_buffer(std::istringstream& ss) {
    lib::BufferType t;
    t.name = word(ss, "buffer name");
    t.resistance = num(ss, "resistance (ohm)");
    t.input_cap = num(ss, "input capacitance (fF)") * fF;
    t.intrinsic_delay = num(ss, "intrinsic delay (ps)") * ps;
    t.noise_margin = num(ss, "noise margin (V)");
    std::string tok;
    if (ss >> tok) {
      if (tok != "inverting") fail("unexpected trailing token '" + tok + "'");
      t.inverting = true;
    }
    if (t.resistance <= 0.0) fail("resistance must be positive");
    if (t.input_cap <= 0.0) fail("input capacitance must be positive");
    if (t.intrinsic_delay < 0.0) fail("intrinsic delay must be >= 0");
    if (t.noise_margin <= 0.0) fail("noise margin must be positive");
    if (out.library.find(t.name))
      fail("duplicate buffer name '" + t.name + "'");
    out.library.add(std::move(t));
  }
};

}  // namespace

LibFile read_library(std::istream& in) {
  Parser p;
  std::string raw;
  while (std::getline(in, raw)) {
    ++p.lineno;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream ss(raw);
    std::string keyword;
    if (!(ss >> keyword)) continue;  // blank / comment-only
    if (keyword == "library") {
      p.line_library(ss);
    } else if (keyword == "buffer") {
      p.line_buffer(ss);
    } else {
      p.fail("unknown keyword '" + keyword + "'");
    }
  }
  if (p.out.library.empty())
    throw ParseError(p.lineno, "library has no buffer types");
  if (p.out.library.inverting_count() == p.out.library.size())
    throw ParseError(p.lineno,
                     "library needs at least one non-inverting type");
  return std::move(p.out);
}

LibFile read_library_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  return read_library(in);
}

void write_library(std::ostream& out, const std::string& name,
                   const lib::BufferLibrary& library) {
  out << std::setprecision(17);  // exact double round-trip
  out << "# nbuf buffer library (units: ohm, fF, ps, V)\n";
  if (!name.empty()) out << "library " << name << '\n';
  for (const lib::BufferType& t : library.types()) {
    out << "buffer " << t.name << ' ' << t.resistance << ' '
        << t.input_cap / fF << ' ' << t.intrinsic_delay / ps << ' '
        << t.noise_margin;
    if (t.inverting) out << " inverting";
    out << '\n';
  }
}

}  // namespace nbuf::io
