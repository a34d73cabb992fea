#include "common/json.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <utility>

namespace dfv::common {

namespace {

/// Length of the valid UTF-8 sequence starting at s[i], or 0 if the bytes
/// there are not well-formed (truncated, overlong, a surrogate, or > U+10FFFF
/// — the RFC 3629 table, which both the reader and jsonEscape enforce).
std::size_t utf8SequenceLength(std::string_view s, std::size_t i) {
  const auto byte = [&](std::size_t k) -> unsigned {
    return static_cast<unsigned char>(s[k]);
  };
  const unsigned b0 = byte(i);
  if (b0 < 0x80) return 1;
  const auto cont = [&](std::size_t k) {
    return k < s.size() && (byte(k) & 0xc0u) == 0x80u;
  };
  if (b0 >= 0xc2 && b0 <= 0xdf) return cont(i + 1) ? 2 : 0;
  if (b0 >= 0xe0 && b0 <= 0xef) {
    if (!cont(i + 1) || !cont(i + 2)) return 0;
    const unsigned b1 = byte(i + 1);
    if (b0 == 0xe0 && b1 < 0xa0) return 0;  // overlong
    if (b0 == 0xed && b1 > 0x9f) return 0;  // UTF-16 surrogate range
    return 3;
  }
  if (b0 >= 0xf0 && b0 <= 0xf4) {
    if (!cont(i + 1) || !cont(i + 2) || !cont(i + 3)) return 0;
    const unsigned b1 = byte(i + 1);
    if (b0 == 0xf0 && b1 < 0x90) return 0;  // overlong
    if (b0 == 0xf4 && b1 > 0x8f) return 0;  // above U+10FFFF
    return 4;
  }
  return 0;  // 0x80..0xc1 (bare continuation / overlong lead), 0xf5..0xff
}

}  // namespace

bool JsonValue::asBool() const {
  DFV_CHECK_MSG(kind_ == Kind::kBool, "JSON value is not a bool");
  return bool_;
}

const std::string& JsonValue::asString() const {
  DFV_CHECK_MSG(kind_ == Kind::kString, "JSON value is not a string");
  return text_;
}

const std::string& JsonValue::numberLexeme() const {
  DFV_CHECK_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  return text_;
}

double JsonValue::asDouble() const {
  DFV_CHECK_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text_.c_str(), &end);
  DFV_CHECK_MSG(end == text_.c_str() + text_.size() && errno != ERANGE,
                "number '" << text_ << "' does not fit a double");
  return v;
}

const std::vector<JsonValue>& JsonValue::items() const {
  DFV_CHECK_MSG(kind_ == Kind::kArray, "JSON value is not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  DFV_CHECK_MSG(kind_ == Kind::kObject, "JSON value is not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  DFV_CHECK_MSG(kind_ == Kind::kObject, "JSON value is not an object");
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  DFV_CHECK_MSG(v != nullptr, "JSON object has no member '" << key << "'");
  return *v;
}

/// Recursive-descent parser.  Reports errors by returning false with a byte
/// offset; never throws (the journal loader treats a parse failure as data
/// corruption, not as a caller bug).
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parseDocument(JsonValue& out, std::string& error) {
    skipWs();
    if (!parseValue(out, 0)) {
      error = "JSON parse error at byte " + std::to_string(pos_) + ": " + err_;
      return false;
    }
    skipWs();
    if (pos_ != text_.size()) {
      error = "JSON parse error at byte " + std::to_string(pos_) +
              ": trailing characters after value";
      return false;
    }
    return true;
  }

 private:
  // Deep enough for any document this repo emits; a cap keeps adversarial
  // input (a corrupted journal is untrusted bytes) from smashing the stack.
  static constexpr unsigned kMaxDepth = 128;

  bool fail(const char* what) {
    err_ = what;
    return false;
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skipWs() {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool parseValue(JsonValue& out, unsigned depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case 'n':
        out.kind_ = JsonValue::Kind::kNull;
        return literal("null");
      case 't':
        out.kind_ = JsonValue::Kind::kBool;
        out.bool_ = true;
        return literal("true");
      case 'f':
        out.kind_ = JsonValue::Kind::kBool;
        out.bool_ = false;
        return literal("false");
      case '"':
        out.kind_ = JsonValue::Kind::kString;
        return parseString(out.text_);
      case '[':
        return parseArray(out, depth);
      case '{':
        return parseObject(out, depth);
      default:
        return parseNumber(out);
    }
  }

  bool parseArray(JsonValue& out, unsigned depth) {
    out.kind_ = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skipWs();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue item;
      skipWs();
      if (!parseValue(item, depth + 1)) return false;
      out.items_.push_back(std::move(item));
      skipWs();
      if (eof()) return fail("unterminated array");
      const char c = peek();
      ++pos_;
      if (c == ']') return true;
      if (c != ',') return fail("expected ',' or ']' in array");
    }
  }

  bool parseObject(JsonValue& out, unsigned depth) {
    out.kind_ = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skipWs();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skipWs();
      if (eof() || peek() != '"') return fail("expected object key string");
      std::string key;
      if (!parseString(key)) return false;
      for (const auto& [k, v] : out.members_)
        if (k == key) return fail("duplicate object key");
      skipWs();
      if (eof() || peek() != ':') return fail("expected ':' after key");
      ++pos_;
      skipWs();
      JsonValue value;
      if (!parseValue(value, depth + 1)) return false;
      out.members_.emplace_back(std::move(key), std::move(value));
      skipWs();
      if (eof()) return fail("unterminated object");
      const char c = peek();
      ++pos_;
      if (c == '}') return true;
      if (c != ',') return fail("expected ',' or '}' in object");
    }
  }

  static void appendUtf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9')
        out |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      else
        return fail("bad hex digit in \\u escape");
    }
    return true;
  }

  bool parseString(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (true) {
      if (eof()) return fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(peek());
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return fail("raw control character in string");
      if (c >= 0x80) {
        const std::size_t len = utf8SequenceLength(text_, pos_);
        if (len == 0) return fail("invalid UTF-8 sequence");
        out.append(text_.substr(pos_, len));
        pos_ += len;
        continue;
      }
      if (c != '\\') {
        out += static_cast<char>(c);
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (eof()) return fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!hex4(cp)) return false;
          if (cp >= 0xDC00 && cp <= 0xDFFF) return fail("lone low surrogate");
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              return fail("high surrogate without \\u low surrogate");
            pos_ += 2;
            std::uint32_t low = 0;
            if (!hex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF)
              return fail("high surrogate without low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          }
          appendUtf8(out, cp);
          break;
        }
        default:
          return fail("invalid escape character");
      }
    }
  }

  bool parseNumber(JsonValue& out) {
    out.kind_ = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    // int part: 0 | [1-9][0-9]*
    if (eof() || peek() < '0' || peek() > '9') return fail("invalid number");
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9')
        return fail("digit required after decimal point");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9')
        return fail("digit required in exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    out.text_.assign(text_.substr(start, pos_ - start));
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string err_;
};

bool tryParseJson(std::string_view text, JsonValue& out, std::string& error) {
  out = JsonValue();
  return JsonParser(text).parseDocument(out, error);
}

JsonValue parseJson(std::string_view text) {
  JsonValue v;
  std::string error;
  DFV_CHECK_MSG(tryParseJson(text, v, error), error);
  return v;
}

std::vector<JsonValue> parseJsonLines(std::string_view text) {
  std::vector<JsonValue> out;
  std::size_t lineNo = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    ++lineNo;
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    JsonValue v;
    std::string error;
    DFV_CHECK_MSG(tryParseJson(line, v, error),
                  "JSONL line " << lineNo << ": " << error);
    out.push_back(std::move(v));
    pos = end + 1;
  }
  return out;
}

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (std::size_t i = 0; i < s.size();) {
    const char c = s[i];
    const auto uc = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; ++i; continue;
      case '\\': out += "\\\\"; ++i; continue;
      case '\b': out += "\\b"; ++i; continue;
      case '\f': out += "\\f"; ++i; continue;
      case '\n': out += "\\n"; ++i; continue;
      case '\r': out += "\\r"; ++i; continue;
      case '\t': out += "\\t"; ++i; continue;
      default: break;
    }
    if (uc < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", uc);
      out += buf;
      ++i;
      continue;
    }
    const std::size_t len = utf8SequenceLength(s, i);
    if (len == 0) {
      out += "\\ufffd";
      ++i;
      continue;
    }
    out.append(s, i, len);
    i += len;
  }
  return out;
}

// ----- JsonWriter -----------------------------------------------------------

JsonWriter& JsonWriter::open(char c) {
  raw(std::string_view(&c, 1));
  open_ += c;
  needComma_ = false;
  return *this;
}

JsonWriter& JsonWriter::close(char opener, char c) {
  DFV_CHECK_MSG(!open_.empty() && open_.back() == opener && !afterKey_,
                "JsonWriter: unbalanced '" << c << "'");
  open_.pop_back();
  out_ += c;
  needComma_ = true;
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view text) {
  if (!std::exchange(afterKey_, false) && needComma_) out_ += ',';
  out_ += text;
  needComma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  DFV_CHECK_MSG(!open_.empty() && open_.back() == '{' && !afterKey_,
                "JsonWriter: key '" << k << "' outside an object");
  raw('"' + jsonEscape(k) + "\":");
  afterKey_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  return raw('"' + jsonEscape(s) + '"');
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return raw("null");
  char buf[32];
  return raw(std::string_view(buf, std::to_chars(buf, std::end(buf), v).ptr));
}

const std::string& JsonWriter::str() const {
  DFV_CHECK_MSG(open_.empty() && !afterKey_,
                "JsonWriter: unterminated document");
  return out_;
}

}  // namespace dfv::common
