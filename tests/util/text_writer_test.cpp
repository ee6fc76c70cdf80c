#include "util/text_writer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace mobirescue::util {
namespace {

std::string Written(double v) {
  TextWriter out;
  out << v;
  return out.Release();
}

/// Same bits, except that a NaN need only come back a NaN of the same
/// sign (the text carries no payload).
void ExpectSameDouble(double got, double want, const std::string& text) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << text;
    EXPECT_EQ(std::signbit(got), std::signbit(want)) << text;
    return;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << text;
}

/// Reads `text` back the two ways the checkpoint loaders do: strtod for
/// every value, operator>> (the SVM, scaler and DQN config readers) for the
/// finite ones. Also checks the text is never longer than the %.17g digits
/// older checkpoints carry.
void ExpectRoundTrip(double v) {
  const std::string text = Written(v);
  char* end = nullptr;
  const double by_strtod = std::strtod(text.c_str(), &end);
  EXPECT_EQ(end, text.c_str() + text.size()) << text;
  ExpectSameDouble(by_strtod, v, text);
  if (std::isfinite(v)) {
    std::istringstream in(text);
    double by_stream = 0.0;
    EXPECT_TRUE(static_cast<bool>(in >> by_stream)) << text;
    ExpectSameDouble(by_stream, v, text);
  }
  char old_digits[40];
  std::snprintf(old_digits, sizeof(old_digits), "%.17g", v);
  EXPECT_LE(text.size(), std::strlen(old_digits)) << text;
}

TEST(TextWriterTest, EdgeDoublesRoundTripBitIdentically) {
  using L = std::numeric_limits<double>;
  const std::vector<double> edges = {
      0.0, -0.0, L::denorm_min(), -L::denorm_min(), L::min(), -L::min(),
      L::max(), L::lowest(), L::epsilon(), 1.0, -1.0, 0.1, 1.0 / 3.0,
      2.0 / 3.0, 1e23, 9007199254740993.0, 1e16, 1e17,
      123456789012345680.0, 2.2250738585072009e-308, L::infinity(),
      -L::infinity(), L::quiet_NaN(), -L::quiet_NaN()};
  for (const double v : edges) ExpectRoundTrip(v);

  EXPECT_EQ(Written(-0.0), "-0");
  EXPECT_EQ(Written(L::infinity()), "inf");
  EXPECT_EQ(Written(-L::infinity()), "-inf");
  EXPECT_EQ(Written(L::quiet_NaN()), "nan");
  EXPECT_EQ(Written(-L::quiet_NaN()), "-nan");
  EXPECT_EQ(Written(0.1), "0.1");
  EXPECT_EQ(Written(100.0), "100");
}

TEST(TextWriterTest, RandomBitPatternsRoundTripBitIdentically) {
  Rng rng(20261017);
  int finite = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto bits = static_cast<std::uint64_t>(
        rng.UniformInt(std::numeric_limits<std::int64_t>::min(),
                       std::numeric_limits<std::int64_t>::max()));
    const double v = std::bit_cast<double>(bits);
    finite += std::isfinite(v) ? 1 : 0;
    ExpectRoundTrip(v);
  }
  EXPECT_GT(finite, 9900);  // the stream reader was exercised too
}

TEST(TextWriterTest, IntegersCharsAndTextAppendInOrder) {
  TextWriter out;
  out << "ticks " << std::numeric_limits<std::uint64_t>::max() << ' '
      << std::numeric_limits<std::int64_t>::min() << ' ' << 0 << ' '
      << std::size_t{4096} << ' ' << std::int32_t{-7} << '\n'
      << std::string("end");
  const std::string want =
      "ticks 18446744073709551615 -9223372036854775808 0 4096 -7\nend";
  std::ostringstream os;
  out.WriteTo(os);
  EXPECT_EQ(os.str(), want);
  EXPECT_EQ(out.Release(), want);
  EXPECT_EQ(out.Release(), "");
}

}  // namespace
}  // namespace mobirescue::util
