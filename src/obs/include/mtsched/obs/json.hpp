// Minimal JSON reader/writer helpers shared by the observability
// serializers (Chrome trace export/parse, BenchReport files).
//
// This is deliberately just enough JSON for documents *this repo writes*:
// strings, numbers, booleans, objects and arrays. Object member order is
// preserved (the exporters emit deterministically ordered documents and
// the tests diff them byte-for-byte). null and unicode escapes are
// rejected — nothing here emits them.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace mtsched::obs::json {

struct Value {
  enum class Type { String, Number, Bool, Object, Array };

  Type type = Type::String;
  std::string str;
  double num = 0.0;
  std::string text;  ///< numbers: the literal as written (integers parse it)
  bool boolean = false;
  std::vector<std::pair<std::string, Value>> members;  ///< objects
  std::vector<Value> items;                            ///< arrays

  /// First member named `key`, or nullptr. Objects only.
  const Value* find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parses one JSON document. `what` names the document kind in error
/// messages ("chrome trace JSON", "bench report JSON"). Numbers read as
/// core::parse_number<double> reads them. Throws core::ParseError on
/// malformed input, trailing characters or nesting deeper than 64 levels.
Value parse(const std::string& text, const std::string& what);

/// `member(obj, key)` like find(), but throws core::ParseError when the
/// key is missing; `what` as in parse().
const Value& member(const Value& obj, const std::string& key,
                    const std::string& what);

/// Escapes `"`, `\`, newline and tab for embedding in a JSON string.
std::string escape(const std::string& s);

}  // namespace mtsched::obs::json
