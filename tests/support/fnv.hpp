// FNV-1a over a byte string: the tests pin event logs by this hash.
#pragma once

#include <cstdint>
#include <string>

namespace selfstab::testing {

inline std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace selfstab::testing
