#ifndef VC_TESTS_TEST_DIGEST_H_
#define VC_TESTS_TEST_DIGEST_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace vc {

/// 64-bit FNV-1a over everything added: a digest that pins an output
/// bit-for-bit, so a refactor that claims to change no behaviour can prove
/// it by leaving the digest unchanged.
class Fnv1a {
 public:
  void AddBytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ull;
    }
  }
  void Add(uint64_t value) { AddBytes(&value, sizeof(value)); }
  /// Doubles contribute their exact bit pattern.
  void Add(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  void Add(int value) {
    Add(static_cast<uint64_t>(static_cast<int64_t>(value)));
  }
  void Add(const std::string& value) {
    Add(static_cast<uint64_t>(value.size()));
    AddBytes(value.data(), value.size());
  }

  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

}  // namespace vc

#endif  // VC_TESTS_TEST_DIGEST_H_
