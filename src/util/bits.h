// Bit-level helpers used throughout the library.
//
// Colors in the coloring algorithms are identified with their binary
// representation of exactly ceil_log2(C) bits (MSB first), matching the
// paper's prefix-extension framework (Section 2).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

namespace dcolor {

// Smallest k with 2^k >= x (x >= 1). ceil_log2(1) == 0.
constexpr int ceil_log2(std::uint64_t x) {
  assert(x >= 1);
  return (x <= 1) ? 0 : 64 - std::countl_zero(x - 1);
}

// Largest k with 2^k <= x (x >= 1).
constexpr int floor_log2(std::uint64_t x) {
  assert(x >= 1);
  return 63 - std::countl_zero(x);
}

// Number of bits needed to write values in [0, x] (x >= 0).
constexpr int bit_width_of(std::uint64_t x) { return x == 0 ? 1 : 64 - std::countl_zero(x); }

// Bit `pos` of `x` where pos==0 is the MOST significant of a `width`-bit
// string. The paper indexes color bits 1..ceil(logC) from the most
// significant side; we use 0-based MSB-first indexing internally.
constexpr int msb_bit(std::uint64_t x, int pos, int width) {
  assert(pos >= 0 && pos < width);
  return static_cast<int>((x >> (width - 1 - pos)) & 1u);
}

// Returns x with its MSB-first bit `pos` (of `width`) set to `b`.
constexpr std::uint64_t with_msb_bit(std::uint64_t x, int pos, int width, int b) {
  assert(b == 0 || b == 1);
  const std::uint64_t mask = std::uint64_t{1} << (width - 1 - pos);
  return b ? (x | mask) : (x & ~mask);
}

// The `len` most significant bits of a `width`-bit value.
constexpr std::uint64_t msb_prefix(std::uint64_t x, int len, int width) {
  assert(len >= 0 && len <= width);
  return len == 0 ? 0 : (x >> (width - len));
}

// log* (iterated logarithm), as used in round-complexity expressions.
constexpr int log_star(double x) {
  int it = 0;
  while (x > 1.0) {
    // Manual log2 to stay constexpr-friendly on older stdlibs.
    double y = 0;
    while (x > 2.0) {
      x /= 2.0;
      y += 1.0;
    }
    x = y + (x > 1.0 ? 1.0 : 0.0);
    ++it;
    if (it > 8) break;  // log* of anything representable is tiny
  }
  return it;
}

}  // namespace dcolor
