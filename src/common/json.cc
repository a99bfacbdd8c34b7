#include "src/common/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <string>

#include "src/common/serde.h"

namespace karousos {

namespace {

// Builds a map from an object's fields in text order; a repeated key keeps
// its last value. One sort keeps a wide object O(n log n), where inserting
// each field into the sorted entry array would be quadratic.
ValueMap MapFromFields(std::vector<ValueMap::value_type> fields) {
  std::stable_sort(fields.begin(), fields.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ValueMap map;
  map.reserve(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i + 1 == fields.size() || fields[i + 1].first != fields[i].first) {
      map.AppendInOrder(std::move(fields[i].first), std::move(fields[i].second));
    }
  }
  return map;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> Parse(JsonParseError* error) {
    std::optional<Value> value = ParseValue(0);
    if (value.has_value()) {
      SkipWhitespace();
      if (pos_ != text_.size()) {
        Fail("trailing characters after JSON value");
        value.reset();
      }
    }
    if (!value.has_value() && error != nullptr) {
      error->position = error_pos_;
      error->message = error_msg_;
    }
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Fail(std::string message) {
    if (error_msg_.empty()) {
      error_pos_ = pos_;
      error_msg_ = std::move(message);
    }
    return false;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return Fail(std::string("expected '") + c + "'");
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return Fail("invalid literal");
  }

  // `depth` counts the arrays/objects enclosing the value. Like
  // ByteReader::ReadValue, nesting stops at kMaxValueDepth: a parsed input
  // must stay decodable wherever it is recorded, and the recursion must not
  // overflow the stack.
  std::optional<Value> ParseValue(size_t depth) {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return std::nullopt;
    }
    switch (text_[pos_]) {
      case 'n':
        if (!ConsumeLiteral("null")) {
          return std::nullopt;
        }
        return Value();
      case 't':
        if (!ConsumeLiteral("true")) {
          return std::nullopt;
        }
        return Value(true);
      case 'f':
        if (!ConsumeLiteral("false")) {
          return std::nullopt;
        }
        return Value(false);
      case '"':
        return ParseString();
      case '[':
        return ParseArray(depth);
      case '{':
        return ParseObject(depth);
      default:
        return ParseNumber();
    }
  }

  std::optional<Value> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    bool is_double = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = is_double || c == '.' || c == 'e' || c == 'E';
        ++pos_;
      } else {
        break;
      }
    }
    std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") {
      Fail("invalid number");
      return std::nullopt;
    }
    if (!is_double) {
      int64_t i = 0;
      auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), i);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return Value(i);
      }
      // Fall through to double on overflow.
    }
    char* end = nullptr;
    std::string owned(token);
    double d = std::strtod(owned.c_str(), &end);
    if (end != owned.c_str() + owned.size()) {
      Fail("invalid number");
      return std::nullopt;
    }
    return Value(d);
  }

  // Appends a Unicode code point as UTF-8.
  static void AppendUtf8(std::string& out, uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      out.push_back(static_cast<char>(0xf0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    }
  }

  std::optional<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) {
      Fail("truncated \\u escape");
      return std::nullopt;
    }
    uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + static_cast<size_t>(i)];
      cp <<= 4;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        cp |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        cp |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        Fail("invalid \\u escape");
        return std::nullopt;
      }
    }
    pos_ += 4;
    return cp;
  }

  std::optional<Value> ParseString() {
    if (!Consume('"')) {
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Value(std::move(out));
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          break;
        }
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'u': {
            auto cp = ParseHex4();
            if (!cp) {
              return std::nullopt;
            }
            uint32_t code = *cp;
            // Combine surrogate pairs.
            if (code >= 0xd800 && code <= 0xdbff && pos_ + 1 < text_.size() &&
                text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
              pos_ += 2;
              auto low = ParseHex4();
              if (!low) {
                return std::nullopt;
              }
              if (*low >= 0xdc00 && *low <= 0xdfff) {
                code = 0x10000 + ((code - 0xd800) << 10) + (*low - 0xdc00);
              } else {
                Fail("invalid surrogate pair");
                return std::nullopt;
              }
            }
            AppendUtf8(out, code);
            break;
          }
          default:
            Fail("invalid escape character");
            return std::nullopt;
        }
        continue;
      }
      out.push_back(c);
      ++pos_;
    }
    Fail("unterminated string");
    return std::nullopt;
  }

  bool CheckDepth(size_t depth) {
    return depth < kMaxValueDepth ||
           Fail("nesting deeper than " + std::to_string(kMaxValueDepth) + " levels");
  }

  std::optional<Value> ParseArray(size_t depth) {
    if (!CheckDepth(depth) || !Consume('[')) {
      return std::nullopt;
    }
    ValueList items;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Value(std::move(items));
    }
    while (true) {
      auto item = ParseValue(depth + 1);
      if (!item) {
        return std::nullopt;
      }
      items.push_back(std::move(*item));
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!Consume(']')) {
        return std::nullopt;
      }
      return Value(std::move(items));
    }
  }

  std::optional<Value> ParseObject(size_t depth) {
    if (!CheckDepth(depth) || !Consume('{')) {
      return std::nullopt;
    }
    std::vector<ValueMap::value_type> fields;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Value(ValueMap{});
    }
    while (true) {
      SkipWhitespace();
      auto key = ParseString();
      if (!key) {
        return std::nullopt;
      }
      SkipWhitespace();
      if (!Consume(':')) {
        return std::nullopt;
      }
      auto value = ParseValue(depth + 1);
      if (!value) {
        return std::nullopt;
      }
      fields.emplace_back(std::string(key->AsString()), std::move(*value));
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!Consume('}')) {
        return std::nullopt;
      }
      return Value(MapFromFields(std::move(fields)));
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t error_pos_ = 0;
  std::string error_msg_;
};

}  // namespace

std::optional<Value> ParseJson(std::string_view text, JsonParseError* error) {
  Parser parser(text);
  return parser.Parse(error);
}

}  // namespace karousos
