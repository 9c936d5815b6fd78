// nbuf-rpc-v1: the length-framed binary protocol of the optimization
// service (docs/serving.md).
//
// Every message — request or response — is one frame: a fixed 20-byte
// little-endian header followed by `payload_len` bytes of payload.
//
//   offset  size  field
//        0     4  magic        0x4E425546 ("NBUF" as a u32)
//        4     2  version      1
//        6     2  opcode       Opcode below
//        8     8  request_id   echoed verbatim in the response
//       16     4  payload_len  <= kMaxPayload (64 MiB)
//
// Payloads are line-oriented text reusing the `.net` / `.lib` interchange
// formats and their EDA units (µm / ohm / fF / ps / V); responses render
// doubles with 17 significant digits, so identical request streams produce
// bit-identical response bytes — the determinism contract test_serve
// enforces at 1 vs 8 worker threads.
//
// Error handling is two-tier. A header-level fault (bad magic, unsupported
// version, oversized payload) means framing is lost: the server replies one
// typed Error frame and closes the connection. A valid header with a bad
// opcode or payload is a request-level fault: the server replies Error and
// keeps serving the session.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace nbuf::serve {

inline constexpr std::uint32_t kMagic = 0x4E425546;  // "NBUF"
inline constexpr std::uint16_t kVersion = 1;
inline constexpr std::size_t kHeaderSize = 20;
inline constexpr std::uint32_t kMaxPayload = 64u << 20;  // 64 MiB

enum class Opcode : std::uint16_t {
  Error = 0,     // response-only: payload is "error <category>: <message>"
  LoadNet = 1,   // payload: optional "segment <um>" line + .net text
  LoadLib = 2,   // payload: .lib text; replaces the session library
  Optimize = 3,  // payload: "net <name>" + option lines; full (cold) run
  Perturb = 4,   // payload: "net <name>" + edit lines; incremental re-run
  Signoff = 5,   // payload: "net <name>"; golden/metric/timing verify
  Stats = 6,     // payload empty; session-local counters
  Shutdown = 7,  // payload empty; server stops accepting after the reply
};

[[nodiscard]] const char* to_string(Opcode op);

struct FrameHeader {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kVersion;
  std::uint16_t opcode = 0;
  std::uint64_t request_id = 0;
  std::uint32_t payload_len = 0;
};

// Why a frame's header (not its payload) was rejected.
enum class HeaderError {
  None,
  BadMagic,
  BadVersion,
  Oversized,
  Truncated,  // peer closed mid-frame
};
[[nodiscard]] const char* to_string(HeaderError err);

void encode_header(const FrameHeader& h, unsigned char out[kHeaderSize]);
[[nodiscard]] FrameHeader decode_header(const unsigned char in[kHeaderSize]);
// Magic/version/size checks only; opcode validity is a request-level issue.
[[nodiscard]] HeaderError validate_header(const FrameHeader& h);

struct Frame {
  Opcode op = Opcode::Error;
  std::uint64_t request_id = 0;
  std::string payload;
};

// Header + payload as one wire-ready byte string.
[[nodiscard]] std::string encode_frame(const Frame& f);

// Request-level failure categories (the first token after "error " in an
// Error payload, so clients can dispatch without parsing prose).
enum class ErrorCode {
  BadOpcode,   // header carried an opcode the server does not know
  BadRequest,  // payload failed to parse (options, edits, net/lib text)
  BadState,    // request is valid but the session lacks the prerequisite
               // (unknown net name, signoff before optimize, ...)
  Internal,    // unexpected exception inside a handler
};
[[nodiscard]] const char* to_string(ErrorCode code);

// Thrown by session handlers; the server turns it into an Error frame.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

// The Error-frame payload for a failed request: "error <category>: <msg>".
[[nodiscard]] std::string error_payload(ErrorCode code,
                                        const std::string& message);
[[nodiscard]] std::string error_payload(HeaderError err);

// --- blocking frame I/O over a connected socket ---------------------------

// Reads one full frame. Returns HeaderError::None on success; Truncated on
// clean EOF before any header byte (out.payload empty) or mid-frame; any
// other value means the header failed validation and the byte stream is no
// longer framed (the caller must close). `clean_eof` distinguishes "peer
// finished" from "peer died mid-frame".
HeaderError read_frame(int fd, Frame& out, bool& clean_eof);

// Writes header + payload; returns false when the peer is gone.
bool write_frame(int fd, const Frame& f);

}  // namespace nbuf::serve
