#include "common/json.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace gamedb::json {

namespace {

/// Recursive-descent reader over the raw document bytes.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue v;
    GAMEDB_RETURN_NOT_OK(ParseValue(&v, /*depth=*/0));
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing garbage");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Fail(const std::string& what) const {
    return Status::ParseError("json: " + what + " at offset " +
                              std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// `depth` counts the arrays/objects enclosing the value.
  Status ParseValue(JsonValue* out, int depth) {
    SkipWs();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    if ((c == '{' || c == '[') && depth == kMaxDepth) {
      return Fail("nesting too deep");
    }
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->str);
      case 't':
      case 'f':
        return ParseKeyword(out);
      case 'n':
        return ParseKeyword(out);
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
        return Fail("unexpected character");
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      GAMEDB_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue v;
      GAMEDB_RETURN_NOT_OK(ParseValue(&v, depth + 1));
      out->members.emplace_back(std::move(key), std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Fail("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue v;
      GAMEDB_RETURN_NOT_OK(ParseValue(&v, depth + 1));
      out->elements.push_back(std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Fail("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening '"'
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) return Fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              char h = text_[pos_ + static_cast<size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Fail("bad \\u escape");
              }
            }
            pos_ += 4;
            // The emitters only escape control characters; decode the BMP
            // code point to UTF-8 and leave surrogate pairs unsupported.
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Fail("bad escape");
        }
        ++pos_;
        continue;
      }
      out->push_back(c);
      ++pos_;
    }
    return Fail("unterminated string");
  }

  /// RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    auto digits = [this] {
      const size_t from = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      return pos_ > from;
    };
    Consume('-');
    if (!Consume('0') && !digits()) return Fail("bad number");
    if (Consume('.') && !digits()) return Fail("bad number");
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (!digits()) return Fail("bad number");
    }
    const double v =
        std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    if (!std::isfinite(v)) return Fail("number out of range");
    out->kind = JsonValue::Kind::kNumber;
    out->number = v;
    return Status::OK();
  }

  Status ParseKeyword(JsonValue* out) {
    auto match = [&](const char* kw) {
      size_t n = std::string(kw).size();
      if (text_.compare(pos_, n, kw) == 0) {
        pos_ += n;
        return true;
      }
      return false;
    };
    if (match("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return Status::OK();
    }
    if (match("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return Status::OK();
    }
    if (match("null")) {
      out->kind = JsonValue::Kind::kNull;
      return Status::OK();
    }
    return Fail("bad keyword");
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

void AppendQuoted(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string Fixed3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", std::isfinite(v) ? v : 0.0);
  return buf;
}

// --- Shape checker ---------------------------------------------------------

const Shape kAnyBool{JsonValue::Kind::kBool};
const Shape kAnyNumber{JsonValue::Kind::kNumber};
const Shape kAnyString{JsonValue::Kind::kString};
const Shape kAnyObject{JsonValue::Kind::kObject};

Shape Object(std::vector<Field> fields) {
  return Shape{JsonValue::Kind::kObject, std::move(fields)};
}

Shape ArrayOf(const Shape* each) {
  return Shape{JsonValue::Kind::kArray, {}, each};
}

Shape MapOf(const Shape* each) {
  return Shape{JsonValue::Kind::kObject, {}, each};
}

Shape OneOf(std::vector<std::string_view> tokens) {
  return Shape{JsonValue::Kind::kString, {}, nullptr, std::move(tokens)};
}

namespace {

const char* KindName(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "a bool";
    case JsonValue::Kind::kNumber: return "a number";
    case JsonValue::Kind::kString: return "a string";
    case JsonValue::Kind::kArray: return "an array";
    case JsonValue::Kind::kObject: return "an object";
  }
  return "?";
}

std::string Check(const JsonValue& v, const Shape& shape,
                  const std::string& path, bool nullable) {
  if (nullable && v.Is(JsonValue::Kind::kNull)) return "";
  const std::string at = path.empty() ? "top level" : path;
  if (!v.Is(shape.kind)) {
    return at + " must be " + KindName(shape.kind) +
           (nullable ? " or null" : "");
  }
  if (!shape.tokens.empty() &&
      std::find(shape.tokens.begin(), shape.tokens.end(), v.str) ==
          shape.tokens.end()) {
    std::string allowed;
    for (std::string_view t : shape.tokens) {
      allowed += (allowed.empty() ? "\"" : "|\"") + std::string(t) + "\"";
    }
    return at + " must be one of " + allowed + ", not \"" + v.str + "\"";
  }
  const std::string prefix = path.empty() ? "" : path + ".";
  for (const Field& f : shape.fields) {
    const JsonValue* member = v.Find(f.key);
    const std::string member_path = prefix + std::string(f.key);
    if (member == nullptr) {
      if (f.presence == Presence::kOptional) continue;
      return "missing " + member_path;
    }
    std::string why = Check(*member, *f.shape, member_path,
                            f.presence == Presence::kNullable);
    if (!why.empty()) return why;
  }
  if (shape.each == nullptr) return "";
  for (size_t i = 0; i < v.elements.size(); ++i) {
    std::string why = Check(v.elements[i], *shape.each,
                            path + "[" + std::to_string(i) + "]", false);
    if (!why.empty()) return why;
  }
  for (const auto& [key, member] : v.members) {
    std::string why = Check(member, *shape.each, prefix + key, false);
    if (!why.empty()) return why;
  }
  return "";
}

}  // namespace

std::string CheckShape(const JsonValue& v, const Shape& shape) {
  return Check(v, shape, "", false);
}

}  // namespace gamedb::json
