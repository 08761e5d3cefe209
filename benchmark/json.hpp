// The little JSON dici_bench needs: a streaming writer for its result
// and trace files, and a reader for --compare and BENCHMARK.json.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace bench {

/// A parsed JSON value. Numbers are doubles; object keys are sorted.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  /// Member `key` of an object, or null when absent or not an object.
  const Json* find(const std::string& key) const;
};

/// Parse a whole document; false with a diagnostic in *error when the
/// text is not one well-formed JSON value.
bool parse_json(std::string_view text, Json* out, std::string* error);
bool read_json_file(const std::string& path, Json* out, std::string* error);

/// Appends JSON text with the commas placed for the caller. Doubles keep
/// every digit (%.17g); non-finite values become null.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view name);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  /// Splice in an already rendered JSON value.
  JsonWriter& raw(std::string_view json);

  const std::string& str() const { return out_; }

 private:
  void separate();
  void open(char bracket);
  void close(char bracket);

  std::string out_;
  std::vector<bool> first_;  ///< per open container: nothing written yet
  bool after_key_ = false;
};

/// Write `text` to `path`; false when the file cannot be written.
bool write_file(const std::string& path, const std::string& text);

}  // namespace bench
