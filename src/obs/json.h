// Minimal JSON reader + Chrome-trace schema check.
//
// The obs exporters *write* JSON; tests and the CI bench-smoke gate need
// to *read* it back to prove the output is well-formed and carries the
// tracks/events it claims to. This is a deliberately small recursive-
// descent parser for that closed loop — full JSON value grammar, UTF-8
// passed through verbatim, no streaming — not a general-purpose library.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace muri::obs {

// A parsed JSON value. Objects use std::map so iteration is ordered.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const noexcept { return type == Type::kObject; }
  bool is_array() const noexcept { return type == Type::kArray; }
  bool is_string() const noexcept { return type == Type::kString; }
  bool is_number() const noexcept { return type == Type::kNumber; }

  // Object member or null-typed sentinel when absent / not an object.
  const JsonValue& at(const std::string& key) const;
};

// Parses `text` into `out`, replacing whatever `out` held, so one value
// can be reused across documents. On failure returns false and, if
// `error` is non-null, stores a message with the byte offset of the
// problem.
bool parse_json(std::string_view text, JsonValue& out,
                std::string* error = nullptr);

// Shallow mode, for scans that read only a record's top-level fields:
// grammar-checks every byte exactly as parse_json does (same accepted
// inputs, same errors), but builds values only for the root object's
// scalar members. Members holding an object or array are omitted, and a
// root array keeps its type but no elements.
bool parse_json_shallow(std::string_view text, JsonValue& out,
                        std::string* error = nullptr);

// Validates `text` as a Chrome trace_event JSON object: parses, requires
// a non-empty "traceEvents" array whose entries carry name/ph/pid/tid/ts
// with the right types ('X' events also need "dur"). On failure returns
// false with a diagnostic in `error`.
bool validate_chrome_trace(std::string_view text, std::string* error = nullptr);

// Number writers shared by the obs exporters. Non-integral values print
// exactly as printf's "%.17g" would — exact for IEEE doubles and
// deterministic for a given value, which byte-stability leans on — but
// through std::to_chars, which skips printf's format parsing and locale.
//
// append_json_double: integral values in (-1e15, 1e15) print plain, with
// no exponent (so -0.0 prints "0"); everything else as %.17g.
void append_json_double(std::string& out, double v);
// append_g17 / g17: plain %.17g for every value (-0.0 prints "-0").
void append_g17(std::string& out, double v);
std::string g17(double v);

}  // namespace muri::obs
