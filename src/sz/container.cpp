#include "sz/container.hpp"

#include <array>

#include "core/error.hpp"
#include "io/crc32.hpp"

namespace xfc {
namespace {
constexpr std::array<std::uint8_t, 4> kMagic{'X', 'F', 'C', '1'};

thread_local int trusted_parse_depth = 0;
}

TrustedParseScope::TrustedParseScope() { ++trusted_parse_depth; }
TrustedParseScope::~TrustedParseScope() { --trusted_parse_depth; }

bool container_parse_trusted() { return trusted_parse_depth > 0; }

std::vector<std::uint8_t> frame_container(CodecId codec,
                                          std::span<const std::uint8_t> body) {
  ByteWriter out;
  out.raw(kMagic);
  out.u8(static_cast<std::uint8_t>(codec));
  out.blob(body);
  const std::uint32_t crc = Crc32::of(out.bytes());
  out.u32(crc);
  return out.take();
}

ParsedContainer parse_container(std::span<const std::uint8_t> stream) {
  if (stream.size() < kMagic.size() + 1 + 1 + 4)
    throw CorruptStream("container: stream too short");
  ByteReader in(stream);
  const auto magic = in.raw(4);
  for (std::size_t i = 0; i < 4; ++i)
    if (magic[i] != kMagic[i])
      throw CorruptStream("container: bad magic (not an XFC stream)");
  const std::uint8_t codec = in.u8();
  if (codec > static_cast<std::uint8_t>(CodecId::kSzClassic))
    throw CorruptStream("container: unknown codec id");
  const std::uint64_t body_len = in.varint();
  if (in.remaining() < 4 || body_len > in.remaining() - 4)
    throw CorruptStream("container: declared body exceeds stream");
  const auto body = in.raw(body_len);

  const std::size_t crc_pos = in.position();
  const std::uint32_t expected = in.u32();
  // Under a TrustedParseScope an outer checksum (the archive's per-tile
  // CRC) already covered these exact bytes, CRC word included; hashing
  // them again per tile was the second-largest fixed cost of archive
  // decode.
  if (!container_parse_trusted()) {
    const std::uint32_t actual = Crc32::of(stream.subspan(0, crc_pos));
    if (expected != actual)
      throw CorruptStream("container: CRC mismatch (corrupted stream)");
  }
  return {static_cast<CodecId>(codec), body};
}

void write_shape(ByteWriter& out, const Shape& shape) {
  out.u8(static_cast<std::uint8_t>(shape.ndim()));
  for (std::size_t d = 0; d < shape.ndim(); ++d) out.varint(shape[d]);
}

Shape read_shape(ByteReader& in) {
  const std::uint8_t ndim = in.u8();
  if (ndim < 1 || ndim > 3) throw CorruptStream("container: bad rank");
  std::size_t dims[3] = {0, 0, 0};
  std::size_t total = 1;
  for (std::size_t d = 0; d < ndim; ++d) {
    dims[d] = in.varint();
    if (dims[d] == 0 || dims[d] > kMaxShapeExtent)
      throw CorruptStream("container: bad extent");
    // Divide-before-multiply: two 2^32 extents would wrap the running
    // product on 64-bit size_t and sail past the cap, and the resulting
    // nonsense count reaches allocations.
    if (total > kMaxShapeElements / dims[d])
      throw CorruptStream("container: absurd element count");
    total *= dims[d];
  }
  return Shape(std::span<const std::size_t>(dims, ndim));
}

}  // namespace xfc
