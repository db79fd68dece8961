// A small strict JSON reader, used only to check the gateway's JSON bodies.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench::json {

struct Value {
  enum class Kind { null, boolean, number, string, array, object };
  Kind kind = Kind::null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value, std::less<>> object;

  /// Member lookup; nullptr when this is not an object or the key is absent.
  const Value* get(std::string_view key) const;
};

/// Parse one complete document (trailing whitespace allowed, nothing else).
std::optional<Value> parse(std::string_view text);

}  // namespace perfbench::json
