// Whitespace-token reader for the checkpoint formats (the service
// checkpoint, the model blocks and the online learner's blob): the read
// side of util::TextWriter, and their only parser.
//
// It walks one std::string_view in place, so no token is copied. Numbers
// go through std::from_chars under one rule, typed by the destination
// field: the number must take its whole token, an integer must fit its
// type (no '+', and no '-' for an unsigned one), and a double reads the
// shortest round-trip digits of the writer and older max_digits10 digits
// to the same bits. A double also reads "nan" and "inf", so a poisoned
// weight survives its round trip; fields that must be finite read through
// Finite(). Hexadecimal, and a value that rounds to ±inf or to zero (1e400,
// 1e-400), are rejected. Every error is a std::runtime_error whose message
// starts with the reader's context.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace mobirescue::util {

class TextReader {
 public:
  /// `context` prefixes every error message ("LoadCheckpoint", ...).
  TextReader(std::string_view text, std::string_view context)
      : text_(text), context_(context) {}

  /// The next token; throws at the end of the input.
  std::string_view Token() {
    SkipSpace();
    if (pos_ == text_.size()) Fail("unexpected end of input");
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && !IsSpace(text_[pos_])) ++pos_;
    return text_.substr(begin, pos_ - begin);
  }

  /// Reads the next token and checks that it is `token`.
  void Expect(std::string_view token) {
    const std::string_view got = Token();
    if (got != token) {
      Fail("expected '" + std::string(token) + "', got '" + std::string(got) +
           "'");
    }
  }

  TextReader& operator>>(double& v) { return Number(v); }
  template <std::integral T>  // a bool takes the overload below
  TextReader& operator>>(T& v) {
    return Number(v);
  }
  /// A flag, written as 0 or 1.
  TextReader& operator>>(bool& v) {
    const std::string_view tok = Token();
    if (tok != "0" && tok != "1") Fail("bad flag '" + std::string(tok) + "'");
    v = tok == "1";
    return *this;
  }

  /// Reads a count and checks it against `max` before anything is sized
  /// by it.
  std::size_t Count(std::size_t max) {
    std::size_t n = 0;
    *this >> n;
    if (n > max) Fail("count " + std::to_string(n) + " out of range");
    return n;
  }

  /// Reads a double that must be finite.
  double Finite() {
    double v = 0.0;
    *this >> v;
    if (!std::isfinite(v)) Fail("non-finite value");
    return v;
  }

  /// True if only whitespace is left.
  bool AtEnd() {
    SkipSpace();
    return pos_ == text_.size();
  }

  /// The offset of the first character not yet read.
  std::size_t offset() const { return pos_; }

  [[noreturn]] void Fail(const std::string& what) const {
    throw std::runtime_error(std::string(context_) + ": " + what);
  }

 private:
  // The classic-locale isspace set, which operator>> splits tokens on.
  static bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

  void SkipSpace() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  }

  template <typename T>
  TextReader& Number(T& v) {
    const std::string_view tok = Token();
    const char* end = tok.data() + tok.size();
    const std::from_chars_result r = std::from_chars(tok.data(), end, v);
    if (r.ec != std::errc() || r.ptr != end) {
      Fail("bad number '" + std::string(tok) + "'");
    }
    return *this;
  }

  std::string_view text_;
  std::string_view context_;
  std::size_t pos_ = 0;
};

}  // namespace mobirescue::util
