#pragma once

/// \file json.h
/// The engine's one JSON stack: a recursive-descent parser, the string
/// escaper and `%.3f` number formatter every emitter calls, and a
/// declarative shape checker for the validators.
///
/// Each emitter keeps its own layout code; each validator parses the raw
/// bytes through ParseJson, checks them against a Shape table and then
/// applies its few semantic rules by hand. Validators share no code with
/// the emitters beyond the escaper, so an emitter bug cannot hide behind a
/// shared serializer.
///
/// Object member order is preserved as written (vector of pairs, not a map):
/// validators can assert deterministic key order where a schema promises it.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace gamedb::json {

/// One parsed JSON value. A tagged tree, no clever variant: validators
/// pattern-match on `kind` and walk `members` / `elements` directly.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> elements;                           // kArray
  std::vector<std::pair<std::string, JsonValue>> members;    // kObject

  bool Is(Kind k) const { return kind == k; }

  /// First member named `key`, or nullptr. Objects are small here; linear
  /// scan keeps insertion order available to callers.
  const JsonValue* Find(std::string_view key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parses `text` as a single JSON document (trailing whitespace allowed,
/// trailing garbage is an error). Numbers follow the RFC 8259 grammar and
/// must be finite; at most 64 arrays/objects may nest. Errors read
/// "json: <what> at offset N".
Result<JsonValue> ParseJson(const std::string& text);

/// Appends `s` to `out` as a quoted JSON string. `"` `\` `\n` `\r` `\t` get
/// their two-character escapes, every other byte below 0x20 becomes
/// `\u00xx`, and all other bytes (UTF-8 included) pass through unchanged.
void AppendQuoted(std::string* out, std::string_view s);

/// `%.3f`: fixed three decimals, never locale-dependent, never scientific.
/// A non-finite value prints as 0.000, so the document stays valid JSON.
std::string Fixed3(double v);

// --- Shape checker ---------------------------------------------------------

/// How an object member may appear.
enum class Presence {
  kRequired,  // must be present and match
  kOptional,  // may be absent; if present, must match
  kNullable,  // must be present; may be null
};

struct Shape;

/// One named member of an object shape.
struct Field {
  std::string_view key;
  const Shape* shape;
  Presence presence = Presence::kRequired;
};

/// The declared form of one JSON value. Build shapes with the helpers below
/// and keep them alive as long as any shape points at them.
struct Shape {
  JsonValue::Kind kind = JsonValue::Kind::kNull;
  /// kObject: these members, checked in order; other keys are ignored.
  std::vector<Field> fields = {};
  /// kArray: every element; kObject: every member value (a keyed map).
  const Shape* each = nullptr;
  /// kString: the allowed values; empty allows any string.
  std::vector<std::string_view> tokens = {};
};

extern const Shape kAnyBool;
extern const Shape kAnyNumber;
extern const Shape kAnyString;
extern const Shape kAnyObject;

Shape Object(std::vector<Field> fields);
Shape ArrayOf(const Shape* each);
Shape MapOf(const Shape* each);
Shape OneOf(std::vector<std::string_view> tokens);

/// Checks `v` against `shape`. Returns the empty string when it matches,
/// else one message naming the dotted path of the first mismatch, e.g.
/// "missing deterministic.world_hash" or "files[0].phase must be one of
/// ...".
std::string CheckShape(const JsonValue& v, const Shape& shape);

}  // namespace gamedb::json
