#include "json_lite.hpp"

#include <charconv>

namespace perfbench::json {

const Value* Value::get(std::string_view key) const {
  if (kind != Kind::object) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

namespace {

constexpr int kMaxDepth = 64;

class Reader {
 public:
  explicit Reader(std::string_view text) : s_(text) {}

  bool document(Value& out) {
    if (!value(out, 0)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value(Value& out, int depth) {
    if (depth > kMaxDepth) return false;
    skip_ws();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object(out, depth);
      case '[': return array(out, depth);
      case '"': out.kind = Value::Kind::string; return string(out.string);
      case 't': out.kind = Value::Kind::boolean; out.boolean = true;
                return literal("true");
      case 'f': out.kind = Value::Kind::boolean; return literal("false");
      case 'n': out.kind = Value::Kind::null; return literal("null");
      default: return number(out);
    }
  }

  bool object(Value& out, int depth) {
    out.kind = Value::Kind::object;
    ++pos_;
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= s_.size() || s_[pos_] != '"' || !string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
      Value member;
      if (!value(member, depth + 1)) return false;
      out.object.insert_or_assign(std::move(key), std::move(member));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == '}') { ++pos_; return true; }
      if (s_[pos_++] != ',') return false;
    }
  }

  bool array(Value& out, int depth) {
    out.kind = Value::Kind::array;
    ++pos_;
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') { ++pos_; return true; }
    while (true) {
      Value element;
      if (!value(element, depth + 1)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ']') { ++pos_; return true; }
      if (s_[pos_++] != ',') return false;
    }
  }

  // Escapes are validated; \u escapes are kept verbatim (bodies are only
  // checked, never re-emitted).
  bool string(std::string& out) {
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') { out.push_back(c); continue; }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out.push_back(e); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u':
          if (pos_ + 4 > s_.size()) return false;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_ + static_cast<std::size_t>(i)];
            const bool hex = (h >= '0' && h <= '9') || (h >= 'a' && h <= 'f') ||
                             (h >= 'A' && h <= 'F');
            if (!hex) return false;
          }
          out.append("\\u").append(s_.substr(pos_, 4));
          pos_ += 4;
          break;
        default: return false;
      }
    }
    return false;
  }

  bool number(Value& out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      const std::size_t from = pos_;
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
      return pos_ > from;
    };
    if (!digits()) return false;
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!digits()) return false;
    }
    out.kind = Value::Kind::number;
    const auto [ptr, ec] =
        std::from_chars(s_.data() + start, s_.data() + pos_, out.number);
    return ec == std::errc{} && ptr == s_.data() + pos_;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Value> parse(std::string_view text) {
  Value out;
  if (!Reader(text).document(out)) return std::nullopt;
  return out;
}

}  // namespace perfbench::json
