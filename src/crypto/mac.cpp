#include "crypto/mac.hpp"

#include <array>

namespace sld::crypto {

MacTag compute_mac(const Key128& key, std::uint32_t src, std::uint32_t dst,
                   std::span<const std::uint8_t> payload) {
  // The tag covers src || dst || len (little-endian u32s) || payload. The
  // header is streamed from the stack, so no buffer is built per packet.
  std::array<std::uint8_t, 12> header{};
  const std::uint32_t fields[3] = {src, dst,
                                   static_cast<std::uint32_t>(payload.size())};
  for (std::size_t i = 0; i < header.size(); ++i)
    header[i] = static_cast<std::uint8_t>(fields[i / 4] >> (8 * (i % 4)));
  return SipHasher(key).update(header).update(payload).finish();
}

bool verify_mac(const Key128& key, std::uint32_t src, std::uint32_t dst,
                std::span<const std::uint8_t> payload, MacTag tag) {
  const MacTag expected = compute_mac(key, src, dst, payload);
  // Branch-free comparison; in the simulator this is about API shape, not
  // a real timing defence.
  return ((expected ^ tag) | (tag ^ expected)) == 0;
}

}  // namespace sld::crypto
