#include "serve/protocol.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace nbuf::serve {

namespace {

void put_u16(unsigned char* out, std::uint16_t v) {
  out[0] = static_cast<unsigned char>(v & 0xFF);
  out[1] = static_cast<unsigned char>(v >> 8);
}

void put_u32(unsigned char* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
}

void put_u64(unsigned char* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
}

std::uint16_t get_u16(const unsigned char* in) {
  return static_cast<std::uint16_t>(in[0] |
                                    (static_cast<std::uint16_t>(in[1]) << 8));
}

std::uint32_t get_u32(const unsigned char* in) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | in[i];
  return v;
}

std::uint64_t get_u64(const unsigned char* in) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | in[i];
  return v;
}

// Retries on EINTR; false on EOF or error. `got_any` reports whether at
// least one byte arrived (to tell clean EOF from a truncated frame).
bool read_exact(int fd, void* buf, std::size_t n, bool& got_any) {
  auto* p = static_cast<unsigned char*>(buf);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::read(fd, p + done, n - done);
    if (r > 0) {
      done += static_cast<std::size_t>(r);
      got_any = true;
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(buf);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::write(fd, p + done, n - done);
    if (r > 0) {
      done += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

const char* to_string(Opcode op) {
  switch (op) {
    case Opcode::Error: return "ERROR";
    case Opcode::LoadNet: return "LOAD_NET";
    case Opcode::LoadLib: return "LOAD_LIB";
    case Opcode::Optimize: return "OPTIMIZE";
    case Opcode::Perturb: return "PERTURB";
    case Opcode::Signoff: return "SIGNOFF";
    case Opcode::Stats: return "STATS";
    case Opcode::Shutdown: return "SHUTDOWN";
  }
  return "UNKNOWN";
}

const char* to_string(HeaderError err) {
  switch (err) {
    case HeaderError::None: return "none";
    case HeaderError::BadMagic: return "bad_magic";
    case HeaderError::BadVersion: return "bad_version";
    case HeaderError::Oversized: return "oversized";
    case HeaderError::Truncated: return "truncated";
  }
  return "unknown";
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::BadOpcode: return "bad_opcode";
    case ErrorCode::BadRequest: return "bad_request";
    case ErrorCode::BadState: return "bad_state";
    case ErrorCode::Internal: return "internal";
  }
  return "unknown";
}

void encode_header(const FrameHeader& h, unsigned char out[kHeaderSize]) {
  put_u32(out, h.magic);
  put_u16(out + 4, h.version);
  put_u16(out + 6, h.opcode);
  put_u64(out + 8, h.request_id);
  put_u32(out + 16, h.payload_len);
}

FrameHeader decode_header(const unsigned char in[kHeaderSize]) {
  FrameHeader h;
  h.magic = get_u32(in);
  h.version = get_u16(in + 4);
  h.opcode = get_u16(in + 6);
  h.request_id = get_u64(in + 8);
  h.payload_len = get_u32(in + 16);
  return h;
}

HeaderError validate_header(const FrameHeader& h) {
  if (h.magic != kMagic) return HeaderError::BadMagic;
  if (h.version != kVersion) return HeaderError::BadVersion;
  if (h.payload_len > kMaxPayload) return HeaderError::Oversized;
  return HeaderError::None;
}

std::string encode_frame(const Frame& f) {
  FrameHeader h;
  h.opcode = static_cast<std::uint16_t>(f.op);
  h.request_id = f.request_id;
  h.payload_len = static_cast<std::uint32_t>(f.payload.size());
  unsigned char head[kHeaderSize];
  encode_header(h, head);
  std::string bytes(reinterpret_cast<const char*>(head), kHeaderSize);
  bytes += f.payload;
  return bytes;
}

std::string error_payload(ErrorCode code, const std::string& message) {
  return std::string("error ") + to_string(code) + ": " + message;
}

std::string error_payload(HeaderError err) {
  return std::string("error ") + to_string(err) +
         ": unrecoverable framing fault, closing connection";
}

HeaderError read_frame(int fd, Frame& out, bool& clean_eof) {
  unsigned char head[kHeaderSize];
  bool got_any = false;
  clean_eof = false;
  if (!read_exact(fd, head, kHeaderSize, got_any)) {
    clean_eof = !got_any;
    return HeaderError::Truncated;
  }
  const FrameHeader h = decode_header(head);
  const HeaderError err = validate_header(h);
  if (err != HeaderError::None) return err;
  out.op = static_cast<Opcode>(h.opcode);  // may be unknown; caller checks
  out.request_id = h.request_id;
  out.payload.resize(h.payload_len);
  if (h.payload_len > 0 &&
      !read_exact(fd, out.payload.data(), h.payload_len, got_any))
    return HeaderError::Truncated;
  return HeaderError::None;
}

bool write_frame(int fd, const Frame& f) {
  const std::string bytes = encode_frame(f);
  return write_all(fd, bytes.data(), bytes.size());
}

}  // namespace nbuf::serve
