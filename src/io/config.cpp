#include "io/config.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/error.hpp"

namespace agcm::io {

namespace {
std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

/// Levenshtein distance (insertions, deletions, substitutions).
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t above = row[j];
      row[j] = std::min({above + 1, row[j - 1] + 1,
                         diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diagonal = above;
    }
  }
  return row[b.size()];
}
}  // namespace

Config Config::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw DataError("cannot open config file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return from_string(buffer.str());
}

Config Config::from_string(const std::string& text) {
  Config config;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    check_config(eq != std::string::npos,
                 "config line " + std::to_string(lineno) +
                     " is not 'key = value': " + trimmed);
    const std::string key = trim(trimmed.substr(0, eq));
    const std::string value = trim(trimmed.substr(eq + 1));
    check_config(!key.empty(),
                 "config line " + std::to_string(lineno) + " has empty key");
    config.values_[key] = value;
  }
  return config;
}

bool Config::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::optional<std::string> Config::raw(const std::string& key) const {
  queried_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return raw(key).value_or(fallback);
}

int Config::get_int(const std::string& key, int fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const int out = std::stoi(*v, &pos);
    check_config(pos == v->size(), "config key '" + key +
                                       "' is not an integer: " + *v);
    return out;
  } catch (const std::invalid_argument&) {
    throw ConfigError("config key '" + key + "' is not an integer: " + *v);
  } catch (const std::out_of_range&) {
    throw ConfigError("config key '" + key + "' is out of range: " + *v);
  }
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const double out = std::stod(*v, &pos);
    check_config(pos == v->size(),
                 "config key '" + key + "' is not a number: " + *v);
    return out;
  } catch (const std::invalid_argument&) {
    throw ConfigError("config key '" + key + "' is not a number: " + *v);
  } catch (const std::out_of_range&) {
    throw ConfigError("config key '" + key + "' is out of range: " + *v);
  }
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  std::string lower = *v;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char ch) { return std::tolower(ch); });
  if (lower == "true" || lower == "yes" || lower == "on" || lower == "1")
    return true;
  if (lower == "false" || lower == "no" || lower == "off" || lower == "0")
    return false;
  throw ConfigError("config key '" + key + "' is not a boolean: " + *v);
}

std::string Config::require_string(const std::string& key) const {
  const auto v = raw(key);
  check_config(v.has_value(), "missing required config key '" + key + "'");
  return *v;
}

int Config::require_int(const std::string& key) const {
  check_config(has(key), "missing required config key '" + key + "'");
  return get_int(key, 0);
}

std::vector<std::string> Config::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (!queried_.count(key)) out.push_back(key);
  }
  return out;
}

void Config::reject_unused_keys() const {
  const std::vector<std::string> unused = unused_keys();
  if (unused.empty()) return;
  std::string names;
  for (const std::string& key : unused) {
    if (!names.empty()) names += ", ";
    names += "'" + key + "'";
    const std::string* closest = nullptr;
    std::size_t best = 3;  // suggest only within edit distance 2
    for (const std::string& known : queried_) {
      const std::size_t d = edit_distance(key, known);
      if (d < best) {
        best = d;
        closest = &known;
      }
    }
    if (closest != nullptr) names += " (did you mean '" + *closest + "'?)";
  }
  throw ConfigError(
      (unused.size() == 1 ? "unrecognised config key " :
                            "unrecognised config keys ") + names);
}

}  // namespace agcm::io
