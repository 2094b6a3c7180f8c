#include "obs/json.h"

#include <charconv>
#include <cstdlib>

namespace muri::obs {

namespace {

const JsonValue& null_value() {
  static const JsonValue v;
  return v;
}

// One recursive-descent grammar for both parse modes. Every production
// takes a nullable output: null means "grammar-check these bytes but
// build nothing", which is how the shallow mode skips nested containers
// without allocating and still rejects exactly what the full mode does.
class Parser {
 public:
  Parser(std::string_view text, bool shallow)
      : text_(text), shallow_(shallow) {}

  bool parse(JsonValue& out, std::string* error) {
    // A reused value must not keep members of the previous document:
    // parse_object's emplace leaves an existing key alone.
    out = JsonValue{};
    skip_ws();
    if (!parse_value(&out)) {
      if (error != nullptr) {
        *error = message_ + " at offset " + std::to_string(pos_);
      }
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing characters at offset " + std::to_string(pos_);
      }
      return false;
    }
    return true;
  }

 private:
  bool fail(const char* message) {
    if (message_.empty()) message_ = message;
    return false;
  }

  // The "C"-locale isspace set, without a locale lookup per byte.
  static bool is_space(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
  }

  void skip_ws() {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  // Containers recurse; a hostile input of  [[[[…  must fail cleanly
  // instead of overflowing the stack.
  static constexpr int kMaxDepth = 192;

  // Where the member value about to be parsed goes: into `object`, or
  // (null) nowhere. In shallow mode the root object's members build
  // values only when they are scalars; a nested container is checked and
  // dropped.
  JsonValue* member_target(JsonValue* object) const {
    if (object == nullptr || !shallow_ || depth_ != 1) return object;
    if (pos_ < text_.size() && (text_[pos_] == '{' || text_[pos_] == '[')) {
      return nullptr;
    }
    return object;
  }

  bool parse_value(JsonValue* out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        if (depth_ >= kMaxDepth) return fail("nesting too deep");
        return parse_object(out);
      case '[':
        if (depth_ >= kMaxDepth) return fail("nesting too deep");
        // A shallow root array keeps its type but no elements.
        return parse_array(out, shallow_ && depth_ == 0);
      case '"':
        if (out != nullptr) out->type = JsonValue::Type::kString;
        return parse_string(out != nullptr ? &out->string : nullptr);
      case 't':
        if (out != nullptr) {
          out->type = JsonValue::Type::kBool;
          out->boolean = true;
        }
        return literal("true") || fail("bad literal");
      case 'f':
        if (out != nullptr) {
          out->type = JsonValue::Type::kBool;
          out->boolean = false;
        }
        return literal("false") || fail("bad literal");
      case 'n':
        if (out != nullptr) out->type = JsonValue::Type::kNull;
        return literal("null") || fail("bad literal");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue* out) {
    if (out != nullptr) out->type = JsonValue::Type::kObject;
    const DepthGuard guard(this);
    if (!consume('{')) return fail("expected '{'");
    skip_ws();
    if (consume('}')) return true;
    std::string key;
    while (true) {
      skip_ws();
      if (!parse_string(out != nullptr ? &key : nullptr)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      if (member_target(out) == nullptr) {
        if (!parse_value(nullptr)) return false;
      } else {
        JsonValue value;
        if (!parse_value(&value)) return false;
        out->object.emplace(key, std::move(value));
      }
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue* out, bool drop_elements) {
    if (out != nullptr) out->type = JsonValue::Type::kArray;
    if (drop_elements) out = nullptr;
    const DepthGuard guard(this);
    if (!consume('[')) return fail("expected '['");
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      skip_ws();
      if (out == nullptr) {
        if (!parse_value(nullptr)) return false;
      } else {
        JsonValue value;
        if (!parse_value(&value)) return false;
        out->array.push_back(std::move(value));
      }
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return fail("expected '\"'");
    if (out != nullptr) out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        if (out != nullptr) *out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("bad escape");
      const char esc = text_[pos_++];
      char plain = 0;
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          plain = esc;
          break;
        case 'b':
          plain = '\b';
          break;
        case 'f':
          plain = '\f';
          break;
        case 'n':
          plain = '\n';
          break;
        case 'r':
          plain = '\r';
          break;
        case 't':
          plain = '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape");
            }
          }
          if (out == nullptr) break;
          // Only BMP escapes are produced by our writers; encode UTF-8.
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return fail("bad escape");
      }
      if (plain != 0 && out != nullptr) *out += plain;
    }
    return fail("unterminated string");
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }
  static bool is_number_char(char c) {
    return is_digit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' ||
           c == '-';
  }

  std::size_t skip_digits() {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    return pos_ - from;
  }

  // A number token is the longest run of [0-9.eE+-]. It is valid when
  // strtod would consume all of it:  [+-]? (d+ (. d*)? | . d+)
  // ([eE] [+-]? d+)?  — matched greedily in one pass, so the grammar
  // check costs no conversion and no second scan.
  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    std::size_t mantissa = skip_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      mantissa += skip_digits();
    }
    bool ok = mantissa > 0;
    if (ok && pos_ < text_.size() &&
        (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      ok = skip_digits() > 0;
    }
    // Number characters past the greedy match extend the token beyond
    // anything the grammar accepts.
    while (pos_ < text_.size() && is_number_char(text_[pos_])) {
      ok = false;
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    if (!ok) return fail("bad number");
    if (out != nullptr) {
      const std::string_view token = text_.substr(start, pos_ - start);
      // strtod needs a terminated copy; writers emit short tokens.
      char buf[64];
      if (token.size() < sizeof(buf)) {
        token.copy(buf, token.size());
        buf[token.size()] = '\0';
        out->number = std::strtod(buf, nullptr);
      } else {
        out->number = std::strtod(std::string(token).c_str(), nullptr);
      }
      out->type = JsonValue::Type::kNumber;
    }
    return true;
  }

  struct DepthGuard {
    explicit DepthGuard(Parser* p) : parser(p) { ++parser->depth_; }
    ~DepthGuard() { --parser->depth_; }
    Parser* parser;
  };

  std::string_view text_;
  bool shallow_ = false;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string message_;
};

bool check(bool ok, const char* message, std::string* error) {
  if (!ok && error != nullptr && error->empty()) *error = message;
  return ok;
}

}  // namespace

const JsonValue& JsonValue::at(const std::string& key) const {
  if (type != Type::kObject) return null_value();
  const auto it = object.find(key);
  return it != object.end() ? it->second : null_value();
}

bool parse_json(std::string_view text, JsonValue& out, std::string* error) {
  return Parser(text, /*shallow=*/false).parse(out, error);
}

bool parse_json_shallow(std::string_view text, JsonValue& out,
                        std::string* error) {
  return Parser(text, /*shallow=*/true).parse(out, error);
}

bool validate_chrome_trace(std::string_view text, std::string* error) {
  JsonValue root;
  if (!parse_json(text, root, error)) return false;
  if (!check(root.is_object(), "top level is not an object", error)) {
    return false;
  }
  const JsonValue& events = root.at("traceEvents");
  if (!check(events.is_array(), "traceEvents missing or not an array",
             error)) {
    return false;
  }
  if (!check(!events.array.empty(), "traceEvents is empty", error)) {
    return false;
  }
  for (const JsonValue& e : events.array) {
    if (!check(e.is_object(), "event is not an object", error)) return false;
    if (!check(e.at("name").is_string(), "event missing name", error) ||
        !check(e.at("ph").is_string(), "event missing ph", error) ||
        !check(e.at("pid").is_number(), "event missing pid", error) ||
        !check(e.at("tid").is_number(), "event missing tid", error)) {
      return false;
    }
    const std::string& ph = e.at("ph").string;
    if (ph == "M") continue;  // metadata events carry no timestamp
    if (!check(e.at("ts").is_number(), "event missing ts", error)) {
      return false;
    }
    if (ph == "X" &&
        !check(e.at("dur").is_number(), "complete event missing dur",
               error)) {
      return false;
    }
  }
  return true;
}

void append_json_double(std::string& out, double v) {
  if (v > -1e15 && v < 1e15) {
    const auto i = static_cast<long long>(v);
    if (static_cast<double>(i) == v) {
      char buf[24];
      out.append(buf, std::to_chars(buf, buf + sizeof(buf), i).ptr);
      return;
    }
  }
  append_g17(out, v);
}

void append_g17(std::string& out, double v) {
  char buf[32];  // "%.17g" needs at most 24: -d.dddddddddddddddde-308
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                std::chars_format::general, 17)
                      .ptr);
}

std::string g17(double v) {
  std::string out;
  append_g17(out, v);
  return out;
}

}  // namespace muri::obs
