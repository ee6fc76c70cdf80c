// The project's one JSON reader and escaper: a minimal recursive-descent
// cursor behind every structural validator (Chrome trace, metrics JSON,
// incident bundles, bench::ValidateBenchJsonFile), plus the string escape
// and number format every JSON writer uses. Dependency-free: the image
// carries no JSON library. The cursor handles the general grammar so
// unknown fields (nested "args" objects and the like) can be skipped.
//
// Hostile input fails cleanly: every read is bounds-checked, and a skipped
// value may nest at most JsonCursor::kMaxDepth arrays/objects deep, so a
// deeply nested unknown field cannot exhaust the stack.
#pragma once

#include <cctype>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>

namespace mobirescue::obs {

struct JsonCursor {
  /// Deepest nesting SkipValue() accepts, in arrays/objects.
  static constexpr int kMaxDepth = 64;

  /// Walks `text`, which must outlive the cursor.
  explicit JsonCursor(const std::string& text)
      : p(text.data()), end(text.data() + text.size()) {}

  const char* p;
  const char* end;
  std::string error;  // the first failure's description
  int depth = 0;      // arrays/objects SkipValue() is inside

  bool Fail(const std::string& message) {
    if (error.empty()) error = message;
    return false;
  }
  void SkipWs() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool Consume(char c) {
    SkipWs();
    if (p >= end || *p != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++p;
    return true;
  }
  bool ConsumeIf(char c) {
    SkipWs();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  char Peek() {
    SkipWs();
    return p < end ? *p : '\0';
  }
  bool ParseString(std::string* out) {
    SkipWs();
    if (p >= end || *p != '"') return Fail("expected string");
    ++p;
    out->clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) return Fail("bad escape");
        switch (*p) {
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          default: *out += *p;
        }
      } else {
        *out += *p;
      }
      ++p;
    }
    if (p >= end) return Fail("unterminated string");
    ++p;
    return true;
  }
  /// A number as the checkpoint reader takes one (std::from_chars): "nan"
  /// and "inf" read, a '+' sign, hex and a number no double holds do not.
  bool ParseNumber(double* out) {
    SkipWs();
    const std::from_chars_result r = std::from_chars(p, end, *out);
    if (r.ptr == p) return Fail("expected number");
    if (r.ec != std::errc()) return Fail("number out of range");
    p = r.ptr;
    return true;
  }
  bool ConsumeLiteral(const char* lit) {
    SkipWs();
    const std::size_t n = std::strlen(lit);
    if (static_cast<std::size_t>(end - p) < n ||
        std::strncmp(p, lit, n) != 0) {
      return Fail(std::string("expected ") + lit);
    }
    p += n;
    return true;
  }
  /// Skips one complete JSON value of any type.
  bool SkipValue() {
    const char c = Peek();
    if (c == '{' || c == '[') {
      if (depth == kMaxDepth) return Fail("nesting too deep");
      ++depth;
      ++p;
      const bool ok = c == '{' ? SkipMembers() : SkipElements();
      --depth;
      return ok;
    }
    switch (c) {
      case '"': {
        std::string s;
        return ParseString(&s);
      }
      case 't': return ConsumeLiteral("true");
      case 'f': return ConsumeLiteral("false");
      case 'n': return ConsumeLiteral("null");
      default: {
        double d;
        return ParseNumber(&d);
      }
    }
  }
  // The rest of an object / array whose opening bracket was consumed.
  bool SkipMembers() {
    if (ConsumeIf('}')) return true;
    for (;;) {
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      if (!SkipValue()) return false;
      if (ConsumeIf(',')) continue;
      return Consume('}');
    }
  }
  bool SkipElements() {
    if (ConsumeIf(']')) return true;
    for (;;) {
      if (!SkipValue()) return false;
      if (ConsumeIf(',')) continue;
      return Consume(']');
    }
  }
};

inline bool ReadWholeFile(const std::string& path, std::string* text,
                          std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  *text = buffer.str();
  return true;
}

/// `s` as the body of a JSON string literal: escapes '"', '\\', newline
/// and tab.
inline std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// `v` with 12 significant digits (printf "%.12g"), the precision of every
/// number the obs and bench writers emit.
inline std::string FormatDouble(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace mobirescue::obs
