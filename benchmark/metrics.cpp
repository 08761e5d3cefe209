#include "metrics.hpp"

#include <span>

#include "json.hpp"

namespace bench {

namespace {

/// Check one BENCHMARK.json metric list against `table`, calling
/// `take(entry, name)` for each entry.
template <class Take>
bool read_list(const Json& doc, const char* key, std::span<const MetricDef> table,
               std::string* error, Take take) {
  const Json* list = doc.find(key);
  if (list == nullptr || list->type != Json::Type::kArray) {
    *error = std::string("BENCHMARK.json has no \"") + key + "\" list";
    return false;
  }
  for (const Json& entry : list->array) {
    const Json* name = entry.find("name");
    const Json* unit = entry.find("unit");
    const Json* better = entry.find("better");
    if (name == nullptr || unit == nullptr || better == nullptr) {
      *error = std::string("BENCHMARK.json: an entry of \"") + key +
               "\" lacks name, unit or better";
      return false;
    }
    const MetricDef* def = nullptr;
    for (const MetricDef& m : table)
      if (name->string == m.name) def = &m;
    if (def == nullptr) {
      *error = "BENCHMARK.json lists " + name->string + " in \"" + key +
               "\", which dici_bench does not measure";
      return false;
    }
    if (unit->string != def->unit ||
        better->string != (def->higher_is_better ? "higher" : "lower")) {
      *error = "BENCHMARK.json gives " + name->string + " unit " + unit->string +
               ", better " + better->string + "; dici_bench measures it in " +
               def->unit + ", " + (def->higher_is_better ? "higher" : "lower") +
               " is better";
      return false;
    }
    if (!take(entry, name->string)) return false;
  }
  return true;
}

}  // namespace

bool load_declared(const std::string& path, Declared* out, std::string* error) {
  Json doc;
  if (!read_json_file(path, &doc, error)) return false;
  Declared d;
  const bool ok =
      read_list(doc, "end_to_end", kEndToEnd, error,
                [&](const Json& entry, const std::string& name) {
                  const Json* bound = entry.find("bound");
                  if (bound == nullptr || bound->type != Json::Type::kNumber) {
                    *error = "BENCHMARK.json gives " + name + " no bound";
                    return false;
                  }
                  d.bounds[name] = bound->number;
                  return true;
                }) &&
      read_list(doc, "per_layer", kPerLayer, error,
                [&](const Json&, const std::string& name) {
                  d.per_layer.push_back(name);
                  return true;
                });
  if (ok) *out = std::move(d);
  return ok;
}

}  // namespace bench
