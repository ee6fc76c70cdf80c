#include "util/text_writer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/text_reader.hpp"

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

double ReadDouble(const std::string& text) {
  TextReader in(text, "ReadDouble");
  double v = 0.0;
  in >> v;
  EXPECT_TRUE(in.AtEnd()) << text;
  return v;
}

/// Reads the writer's text back through util::TextReader, the checkpoint
/// loaders' reader, and the %.17g digits older checkpoints carry too; the
/// writer's text is never the longer one.
void ExpectRoundTrip(double v) {
  const std::string text = Written(v);
  ExpectSameDouble(ReadDouble(text), v, text);
  char old_digits[40];
  std::snprintf(old_digits, sizeof(old_digits), "%.17g", v);
  ExpectSameDouble(ReadDouble(old_digits), v, old_digits);
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
  EXPECT_GT(finite, 9900);  // nearly all of them went through the digits
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

  // And back, each value into its own type.
  TextReader in(want, "IntegersCharsAndTextAppendInOrder");
  std::uint64_t u = 0;
  std::int64_t i = 0;
  bool flag = true;
  std::int32_t small = 0;
  in.Expect("ticks");
  in >> u >> i >> flag;
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(i, std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE(flag);
  EXPECT_EQ(in.Count(4096), 4096u);
  in >> small;
  EXPECT_EQ(small, -7);
  EXPECT_FALSE(in.AtEnd());
  in.Expect("end");
  EXPECT_TRUE(in.AtEnd());
}

TEST(TextWriterTest, ClearEmptiesTheTextAndKeepsItsStorage) {
  TextWriter out;
  out << std::string(4096, 'x');
  const char* storage = out.view().data();
  out.Clear();
  EXPECT_EQ(out.view(), "");
  out << "ticks " << 7 << '\n';
  EXPECT_EQ(out.view(), "ticks 7\n");
  // A text that fits the kept capacity does not reallocate it.
  out << std::string(4000, 'y');
  EXPECT_EQ(out.view().data(), storage);
  EXPECT_EQ(out.view().size(), 4008u);
}

/// `text` read into a T throws std::runtime_error carrying the context.
template <typename T>
void ExpectRejected(const std::string& text) {
  TextReader in(text, "ctx");
  T v{};
  try {
    in >> v;
    ADD_FAILURE() << "'" << text << "' was read";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("ctx: ", 0), 0u) << e.what();
  }
}

TEST(TextReaderTest, RejectsWhatNoWriterWrites) {
  // A double: a sign the writer never writes, a partly numeric token, hex,
  // a value that rounds to ±inf or to zero, and the end of the input.
  for (const char* text : {"+1", "1x", "0x1p3", "0x10", "1e400", "-1e400",
                           "1e-400", "2e-324", ".", "-", "", " \n\t"}) {
    ExpectRejected<double>(text);
  }
  // Integers: a sign an unsigned field cannot take, '+', a fraction or an
  // exponent, and values just past each type's range.
  for (const char* text : {"-1", "-0", "+5", "1.5", "1e3", "0x10", "1x",
                           "18446744073709551616"}) {
    ExpectRejected<std::uint64_t>(text);
    ExpectRejected<std::size_t>(text);
  }
  ExpectRejected<std::uint32_t>("4294967296");
  ExpectRejected<std::uint32_t>("-1");
  ExpectRejected<std::int32_t>("2147483648");
  ExpectRejected<std::int32_t>("-2147483649");
  ExpectRejected<std::int32_t>("4294967298");
  ExpectRejected<std::int32_t>("+5");
  ExpectRejected<std::int64_t>("9223372036854775808");
  ExpectRejected<std::int64_t>("-9223372036854775809");
  ExpectRejected<bool>("2");
  ExpectRejected<bool>("-1");

  TextReader count("17", "ctx");
  EXPECT_THROW(count.Count(16), std::runtime_error);
  TextReader keyword("buffer 3", "ctx");
  EXPECT_THROW(keyword.Expect("buffers"), std::runtime_error);
  for (const char* text : {"nan", "-nan", "inf", "-inf"}) {
    TextReader finite(text, "ctx");
    EXPECT_THROW(finite.Finite(), std::runtime_error) << text;
  }
  // The largest values of each type still read.
  TextReader edges("4294967295 2147483647 -2147483648 1.7976931348623157e308",
                   "ctx");
  std::uint32_t u32 = 0;
  std::int32_t i32_max = 0, i32_min = 0;
  edges >> u32 >> i32_max >> i32_min;
  EXPECT_EQ(u32, std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(i32_max, std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(i32_min, std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(edges.Finite(), std::numeric_limits<double>::max());
}

}  // namespace
}  // namespace mobirescue::util
