#include "json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace bench {

const Json* Json::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

namespace {

/// Recursive-descent parser over one document.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool document(Json* out, std::string* error) {
    if (!value(out, 0) || (skip_space(), pos_ != text_.size())) {
      if (error_.empty()) error_ = "trailing characters";
      *error = error_ + " at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const char* what) {
    if (error_.empty()) error_ = what;
    return false;
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t'))
      ++pos_;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool value(Json* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_space();
    if (pos_ >= text_.size()) return fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') return object(out, depth);
    if (c == '[') return array(out, depth);
    if (c == '"') {
      out->type = Json::Type::kString;
      return string(&out->string);
    }
    if (c == 't' || c == 'f') {
      out->type = Json::Type::kBool;
      out->boolean = c == 't';
      return literal(c == 't' ? "true" : "false");
    }
    if (c == 'n') {
      out->type = Json::Type::kNull;
      return literal("null");
    }
    return number(out);
  }

  bool number(Json* out) {
    const std::string rest(text_.substr(pos_, 64));
    char* end = nullptr;
    const double v = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) return fail("expected a value");
    out->type = Json::Type::kNumber;
    out->number = v;
    pos_ += static_cast<std::size_t>(end - rest.c_str());
    return true;
  }

  bool string(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        c = text_[pos_++];
        switch (c) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            // Only the escapes our own writer emits (control bytes).
            if (pos_ + 4 > text_.size()) return fail("short \\u escape");
            c = static_cast<char>(
                std::strtol(std::string(text_.substr(pos_, 4)).c_str(),
                            nullptr, 16));
            pos_ += 4;
            break;
          }
          default: break;  // \" \\ \/
        }
      }
      out->push_back(c);
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool array(Json* out, int depth) {
    out->type = Json::Type::kArray;
    ++pos_;
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == ']') return ++pos_, true;
    for (;;) {
      out->array.emplace_back();
      if (!value(&out->array.back(), depth + 1)) return false;
      skip_space();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') return ++pos_, true;
      return fail("expected , or ]");
    }
  }

  bool object(Json* out, int depth) {
    out->type = Json::Type::kObject;
    ++pos_;
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == '}') return ++pos_, true;
    for (;;) {
      skip_space();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected a member name");
      std::string name;
      if (!string(&name)) return false;
      skip_space();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected :");
      ++pos_;
      if (!value(&out->object[name], depth + 1)) return false;
      skip_space();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') return ++pos_, true;
      return fail("expected , or }");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool parse_json(std::string_view text, Json* out, std::string* error) {
  *out = Json{};
  return Parser(text).document(out, error);
}

bool read_json_file(const std::string& path, Json* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  if (!parse_json(text.str(), out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (first_.empty()) return;
  if (!first_.back()) out_ += ", ";
  first_.back() = false;
}

void JsonWriter::open(char bracket) {
  separate();
  out_ += bracket;
  first_.push_back(true);
}

void JsonWriter::close(char bracket) {
  out_ += bracket;
  first_.pop_back();
}

JsonWriter& JsonWriter::begin_object() { return open('{'), *this; }
JsonWriter& JsonWriter::end_object() { return close('}'), *this; }
JsonWriter& JsonWriter::begin_array() { return open('['), *this; }
JsonWriter& JsonWriter::end_array() { return close(']'), *this; }

JsonWriter& JsonWriter::key(std::string_view name) {
  value(name);
  out_ += ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separate();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  separate();
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  separate();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separate();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  separate();
  out_ += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace bench
