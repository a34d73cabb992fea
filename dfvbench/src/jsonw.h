// A minimal streaming JSON writer whose output is canonical: no whitespace,
// drc::jsonEscape's string escapes (every control character; ill-formed
// UTF-8 replaced), shortest round-trip numbers.  Because the form is
// canonical, "round-trips through common::json" can be checked byte for
// byte: parse the text, serialize the parsed value again with dumpJson(),
// and compare.  checkedJson() does exactly that for every document the
// benchmark emits.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "drc/diagnostics.h"

namespace dfvbench {

inline std::string escapeJson(std::string_view s) {
  std::string out = "\"";
  out += dfv::drc::jsonEscape(std::string(s));
  out += '"';
  return out;
}

inline std::string formatNumber(double v) {
  DFV_CHECK_MSG(std::isfinite(v), "non-finite number in a JSON document");
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

class JsonWriter {
 public:
  JsonWriter& beginObject() { return open('{'); }
  JsonWriter& endObject() { return close('}'); }
  JsonWriter& beginArray() { return open('['); }
  JsonWriter& endArray() { return close(']'); }

  JsonWriter& key(std::string_view k) {
    separate();
    out_ += escapeJson(k);
    out_ += ':';
    afterKey_ = true;
    return *this;
  }
  JsonWriter& value(std::string_view s) { return raw(escapeJson(s)); }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(const std::string& s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  JsonWriter& value(double v) { return raw(formatNumber(v)); }
  JsonWriter& value(std::uint64_t v) { return raw(std::to_string(v)); }
  JsonWriter& value(std::int64_t v) { return raw(std::to_string(v)); }
  JsonWriter& value(unsigned v) { return value(std::uint64_t{v}); }
  JsonWriter& value(int v) { return value(std::int64_t{v}); }

  template <typename T>
  JsonWriter& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }
  /// Inserts a complete document this writer's canonical form produced.
  JsonWriter& embed(std::string_view document) { return raw(document); }

  const std::string& str() const {
    DFV_CHECK_MSG(first_.empty(), "unterminated JSON document");
    return out_;
  }

 private:
  JsonWriter& raw(std::string_view text) {
    separate();
    out_ += text;
    return *this;
  }
  JsonWriter& open(char c) {
    separate();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& close(char c) {
    DFV_CHECK(!first_.empty());
    first_.pop_back();
    out_ += c;
    return *this;
  }
  void separate() {
    if (afterKey_) {
      afterKey_ = false;
      return;
    }
    if (first_.empty()) return;
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }

  std::string out_;
  std::vector<bool> first_;
  bool afterKey_ = false;
};

/// Serializes a parsed value in the writer's canonical form.
inline std::string dumpJson(const dfv::common::JsonValue& v) {
  using Kind = dfv::common::JsonValue::Kind;
  switch (v.kind()) {
    case Kind::kNull: return "null";
    case Kind::kBool: return v.asBool() ? "true" : "false";
    case Kind::kNumber: return v.numberLexeme();
    case Kind::kString: return escapeJson(v.asString());
    case Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.items().size(); ++i) {
        if (i > 0) out += ',';
        out += dumpJson(v.items()[i]);
      }
      return out + "]";
    }
    case Kind::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, m] : v.members()) {
        if (!first) out += ',';
        first = false;
        out += escapeJson(k) + ":" + dumpJson(m);
      }
      return out + "}";
    }
  }
  DFV_UNREACHABLE("bad JSON kind");
}

/// Returns `text` after proving it parses with the strict parser and
/// re-serializes to the identical bytes; throws CheckError otherwise.
inline const std::string& checkedJson(const std::string& text) {
  const dfv::common::JsonValue parsed = dfv::common::parseJson(text);
  DFV_CHECK_MSG(dumpJson(parsed) == text,
                "JSON document does not round-trip: " << text.substr(0, 200));
  return text;
}

}  // namespace dfvbench
