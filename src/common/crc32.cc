#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace vc {
namespace {

// Slicing-by-8: table[k][b] is the CRC of byte b followed by k zero bytes,
// so eight table lookups fold eight input bytes into the register at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables BuildTables() {
  Tables table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    table[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      const uint32_t prev = table[k - 1][i];
      table[k][i] = table[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return table;
}

/// The 4 bytes at `p` as a little-endian word.
uint32_t LoadLE32(const uint8_t* p) {
  uint32_t word;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap32(word);
  }
  return word;
}

}  // namespace

uint32_t Crc32(Slice data, uint32_t seed) {
  static const Tables table = BuildTables();
  uint32_t c = seed ^ 0xffffffffu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLE32(p) ^ c;
    const uint32_t hi = LoadLE32(p + 4);
    c = table[7][lo & 0xffu] ^ table[6][(lo >> 8) & 0xffu] ^
        table[5][(lo >> 16) & 0xffu] ^ table[4][lo >> 24] ^
        table[3][hi & 0xffu] ^ table[2][(hi >> 8) & 0xffu] ^
        table[1][(hi >> 16) & 0xffu] ^ table[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = table[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace vc
