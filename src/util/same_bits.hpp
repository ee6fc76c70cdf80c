// Bitwise equality of two double arrays, for memos of formatted text: the
// text of a double follows its bits, and == does not (-0 == +0, and a NaN
// is not equal to itself).
#pragma once

#include <cstring>
#include <span>

namespace mobirescue::util {

inline bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace mobirescue::util
