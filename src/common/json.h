// The repo's one JSON writer and its strict JSON / JSONL reader.
//
// Every document the repo emits — PlanReport::json, DRC reports, bench
// --json files, the write-ahead journal's header and record payloads — is
// written by JsonWriter, which has no configuration: compact `"key":value`
// output with no whitespace, strings escaped by jsonEscape, doubles in their
// shortest round-trip form (std::to_chars), non-finite doubles as null.
//
// The reader is the journal's recovery parser, so it is strict on purpose:
// RFC 8259 grammar only (no trailing commas, no comments, no NaN/Infinity,
// no unescaped control characters, valid UTF-8, full \uXXXX surrogate-pair
// handling), and exactly one value per parse with nothing but whitespace
// after it.  Anything else is rejected with a position-carrying error — for
// the journal, "rejected" is the signal that a record is corrupt and
// everything after it must be re-run, so leniency here would be a soundness
// bug.  Whatever JsonWriter writes, the reader accepts.
//
// Numbers keep their raw lexeme alongside the double value: journal records
// carry uint64 digests and fingerprints that do not survive a double
// round-trip, so asUint64()/asInt64() re-parse the lexeme exactly.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"

namespace dfv::common {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool isNull() const { return kind_ == Kind::kNull; }
  bool isBool() const { return kind_ == Kind::kBool; }
  bool isNumber() const { return kind_ == Kind::kNumber; }
  bool isString() const { return kind_ == Kind::kString; }
  bool isArray() const { return kind_ == Kind::kArray; }
  bool isObject() const { return kind_ == Kind::kObject; }

  bool asBool() const;
  /// The decoded string (escapes resolved, \uXXXX re-encoded as UTF-8).
  const std::string& asString() const;
  /// The raw number lexeme as written (e.g. "1e+06", "18446744073709551615").
  const std::string& numberLexeme() const;
  double asDouble() const;
  /// Strict: the lexeme must be an integer (no fraction or exponent, a
  /// leading '-' only for signed T) that fits in T.  Throws CheckError
  /// otherwise — a value too wide for its field is rejected, never wrapped.
  template <std::integral T>
  T asInteger() const {
    DFV_CHECK_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
    T v{};
    const char* end = text_.data() + text_.size();
    const auto [ptr, ec] = std::from_chars(text_.data(), end, v);
    DFV_CHECK_MSG(ec == std::errc{} && ptr == end,
                  "number '" << text_ << "' is not a " << sizeof(T) * 8
                             << "-bit integer of that signedness");
    return v;
  }
  std::uint64_t asUint64() const { return asInteger<std::uint64_t>(); }
  std::int64_t asInt64() const { return asInteger<std::int64_t>(); }

  const std::vector<JsonValue>& items() const;  ///< array elements
  /// Object members in document order (duplicate keys are a parse error).
  const std::vector<std::pair<std::string, JsonValue>>& members() const;
  /// nullptr when `key` is absent (object only).
  const JsonValue* find(std::string_view key) const;
  /// Throws CheckError when `key` is absent.
  const JsonValue& at(std::string_view key) const;

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string text_;  // string value or number lexeme
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses exactly one JSON value from `text` (leading/trailing whitespace
/// allowed, anything else after the value is an error).  Returns false and
/// fills `error` (with byte offset) on malformed input; `out` is
/// unspecified then.
bool tryParseJson(std::string_view text, JsonValue& out, std::string& error);

/// Throwing wrapper: CheckError on malformed input.
JsonValue parseJson(std::string_view text);

/// Strict JSONL: every '\n'-terminated line holds exactly one JSON value
/// (a final unterminated line is accepted; empty/whitespace-only lines are
/// an error — a JSONL stream has no blank records).  Throws CheckError with
/// the offending line number on malformed input.
std::vector<JsonValue> parseJsonLines(std::string_view text);

/// Escapes `s` for embedding between the quotes of a JSON string: `"` and
/// `\`, the short forms \b \f \n \r \t, \u00XX for the other control
/// characters, and U+FFFD for each byte of ill-formed UTF-8 (documents quote
/// raw design bytes, and a parser must never be handed invalid UTF-8).
std::string jsonEscape(std::string_view s);

/// Streams one JSON document: containers open and close explicitly, and
/// inside an object each value follows its key() (field() does both).
class JsonWriter {
 public:
  JsonWriter& beginObject() { return open('{'); }
  JsonWriter& endObject() { return close('{', '}'); }
  JsonWriter& beginArray() { return open('['); }
  JsonWriter& endArray() { return close('[', ']'); }
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  /// Shortest form that parses back to the same double; NaN/inf as null.
  JsonWriter& value(double v);
  template <std::integral T>
  JsonWriter& value(T v) {
    char buf[24];
    return raw(std::string_view(buf, std::to_chars(buf, buf + 24, v).ptr));
  }

  template <typename T>
  JsonWriter& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  /// The finished document.  Throws CheckError while a container or a key
  /// is still waiting for its close or value.
  const std::string& str() const;

 private:
  JsonWriter& open(char c);
  JsonWriter& close(char opener, char c);
  JsonWriter& raw(std::string_view text);  ///< one value, comma-separated

  std::string out_;
  std::string open_;  ///< the opening bracket of every unclosed container
  bool needComma_ = false;
  bool afterKey_ = false;
};

}  // namespace dfv::common
