// Plain-text buffer-library files (".lib") — the nbuf_cli --library format.
//
// Line-oriented, '#' starts a comment, blank lines ignored. Units are the
// conventional EDA ones (converted to SI on load):
//   resistance ohm · capacitance fF · time ps · voltage V
//
//   library <name>                                        (optional, once)
//   buffer <name> <r_ohm> <cin_ff> <delay_ps> <nm_v> [inverting]
//
// Validation (docs/library.md): every numeric field finite and in range,
// R/C/NM strictly positive, delay non-negative, names unique, at least one
// type, and at least one non-inverting type — Algorithms 1/2 insert
// polarity-preserving repeaters, so an inverting-only file cannot serve
// the tool pipeline. Violations throw ParseError with the 1-based line
// number. write_library uses 17 significant digits, so
// write(read(write(x))) is byte-identical to write(x).
#pragma once

#include <iosfwd>
#include <string>

#include "io/netfile.hpp"  // ParseError
#include "lib/buffer.hpp"

namespace nbuf::io {

struct LibFile {
  std::string name;  // from the `library` line; may be empty
  lib::BufferLibrary library;
};

[[nodiscard]] LibFile read_library(std::istream& in);
[[nodiscard]] LibFile read_library_file(const std::string& path);

void write_library(std::ostream& out, const std::string& name,
                   const lib::BufferLibrary& library);

}  // namespace nbuf::io
