#ifndef XFC_SZ_CONTAINER_HPP
#define XFC_SZ_CONTAINER_HPP

/// \file container.hpp
/// Outer framing shared by all xfc codecs:
///
///   "XFC1" | u8 codec-id | varint body-length | body | u32 CRC-32
///
/// The CRC covers everything before it, so truncation and corruption are
/// both detected before a codec ever parses the body.

#include <cstdint>
#include <span>
#include <vector>

#include "core/ndarray.hpp"
#include "io/bytebuffer.hpp"

namespace xfc {

enum class CodecId : std::uint8_t {
  kSz = 0,          // prediction + dual-quant pipeline
  kZfp = 1,         // transform-based block codec
  kCrossField = 2,  // CFNN + hybrid prediction pipeline
  kInterp = 3,      // interpolation-based pipeline
  kSzClassic = 4,   // original sequential SZ quantization (ablation)
};

/// Wraps a codec body in the outer frame.
std::vector<std::uint8_t> frame_container(CodecId codec,
                                          std::span<const std::uint8_t> body);

/// Validates the frame (magic, length, CRC) and returns the codec id plus a
/// view of the body within `stream`. Under an active TrustedParseScope the
/// CRC pass is skipped (every structural check still runs).
struct ParsedContainer {
  CodecId codec;
  std::span<const std::uint8_t> body;
};
ParsedContainer parse_container(std::span<const std::uint8_t> stream);

/// RAII marker: while alive on this thread, parse_container trusts that an
/// outer integrity check already covered the stream bytes and skips its CRC
/// pass (magic/codec/length validation still runs — only the checksum walk
/// is elided). The archive reader holds one around each tile-body decode:
/// the per-tile archive CRC it just verified covers the full XFC1 container
/// including the container's own CRC word, so re-hashing the same bytes
/// buys nothing. Scopes nest; the flag is thread-local, so worker threads
/// decoding tiles in parallel never affect each other.
class TrustedParseScope {
 public:
  TrustedParseScope();
  ~TrustedParseScope();
  TrustedParseScope(const TrustedParseScope&) = delete;
  TrustedParseScope& operator=(const TrustedParseScope&) = delete;
};

/// True while any TrustedParseScope lives on this thread (exposed for
/// tests).
bool container_parse_trusted();

/// Shape <-> bytes helpers shared by codec headers. read_shape refuses
/// (CorruptStream) any extent above kMaxShapeExtent and any element count
/// above kMaxShapeElements.
inline constexpr std::size_t kMaxShapeExtent = std::size_t{1} << 32;
inline constexpr std::size_t kMaxShapeElements = std::size_t{1} << 36;
void write_shape(ByteWriter& out, const Shape& shape);
Shape read_shape(ByteReader& in);

}  // namespace xfc

#endif  // XFC_SZ_CONTAINER_HPP
