// Append-only text writer for the checkpoint formats (the service
// checkpoint, the model blocks and the online learner's blob); its read
// side is util::TextReader.
//
// Doubles are written by std::to_chars, which gives the shortest text that
// std::from_chars reads back to the same bits (±0 and ±inf included; NaN
// keeps its sign, not its payload). Integers are written in decimal.
// Everything goes into one std::string, so a save formats each token once
// and hands the whole text to its stream, file or caller in one piece — no
// per-token stream state or vsnprintf call, which dominated the save at
// max_digits10. A writer kept across saves and emptied by Clear() keeps its
// capacity, so a periodic save stops allocating once the writer has held
// its largest text.
#pragma once

#include <charconv>
#include <concepts>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace mobirescue::util {

class TextWriter {
 public:
  TextWriter& operator<<(double v) { return Number(v); }
  template <std::integral T>  // a char takes the overload below
  TextWriter& operator<<(T v) {
    return Number(v);
  }
  TextWriter& operator<<(char c) {
    text_.push_back(c);
    return *this;
  }
  TextWriter& operator<<(std::string_view s) {
    text_.append(s);
    return *this;
  }

  /// Moves the text out; the writer is empty afterwards.
  std::string Release() { return std::exchange(text_, std::string()); }
  /// Empties the writer and keeps its capacity.
  void Clear() { text_.clear(); }
  /// The text so far; valid until the next write or Clear().
  std::string_view view() const { return text_; }
  /// Writes the whole text to `os` in one call.
  void WriteTo(std::ostream& os) const {
    os.write(text_.data(), static_cast<std::streamsize>(text_.size()));
  }

 private:
  template <typename T>
  TextWriter& Number(T v) {
    char digits[32];  // a double's shortest form needs at most 24 chars
    const std::to_chars_result r =
        std::to_chars(digits, digits + sizeof(digits), v);
    text_.append(digits, r.ptr);
    return *this;
  }

  std::string text_;
};

}  // namespace mobirescue::util
