// Minimal key = value configuration files for the example drivers.
//
// Format: one `key = value` per line; `#` starts a comment; blank lines
// ignored; keys are case-sensitive. Typed getters with defaults plus
// required-key variants that throw ConfigError with the offending key.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace agcm::io {

class Config {
 public:
  Config() = default;

  /// Parses a file; throws DataError if unreadable, ConfigError on a
  /// malformed line (anything without '=' that is not blank/comment).
  static Config from_file(const std::string& path);
  /// Parses from a string (tests, inline defaults).
  static Config from_string(const std::string& text);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  int get_int(const std::string& key, int fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Required variants: throw ConfigError naming the missing key.
  std::string require_string(const std::string& key) const;
  int require_int(const std::string& key) const;

  /// All keys that were never read by any getter — catches typos in config
  /// files ("filter_algorthm = ..." silently ignored otherwise).
  std::vector<std::string> unused_keys() const;

  /// Throws ConfigError naming every key in unused_keys(), if any. Call it
  /// after every getter the caller will ever use has run. A key within edit
  /// distance 2 of a key some getter asked for (present or not) gets a
  /// "did you mean" hint naming the closest one.
  void reject_unused_keys() const;

 private:
  std::optional<std::string> raw(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> queried_;  ///< every key a getter asked for
};

}  // namespace agcm::io
