#include "common/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/check.h"

namespace ddc {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    DDC_CHECK(arg.size() > 2 && arg[0] == '-' && arg[1] == '-');
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

namespace {

/// The number rules of flags and spec values: the whole string must parse,
/// so `2k` is not 2 and `abc` is not 0; an integer must fit int64_t; and a
/// double must be finite, since `inf` or `nan` would reach the geometry.
bool ParseInt(const std::string& raw, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(raw.c_str(), &end, 10);
  if (raw.empty() || end != raw.c_str() + raw.size() || errno != 0) {
    return false;
  }
  *out = static_cast<int64_t>(value);
  return true;
}

bool ParseDouble(const std::string& raw, double* out) {
  char* end = nullptr;
  const double value = std::strtod(raw.c_str(), &end);
  if (raw.empty() || end != raw.c_str() + raw.size() || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

/// Aborts naming the flag and its value: a number that parses only in part
/// (`--n=2k` as 2) or not at all (`--budget=abc` as 0) would otherwise run
/// a different experiment than the one asked for.
void MalformedNumber(const std::string& name, const std::string& value,
                     const char* what) {
  std::fprintf(stderr, "flag --%s=%s is not %s\n", name.c_str(),
               value.c_str(), what);
  DDC_CHECK(false && "malformed numeric flag");
}

}  // namespace

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  read_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  int64_t value = 0;
  if (!ParseInt(it->second, &value)) {
    MalformedNumber(name, it->second, "an integer");
  }
  return value;
}

double Flags::GetDouble(const std::string& name, double def) const {
  read_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  double value = 0;
  if (!ParseDouble(it->second, &value)) {
    MalformedNumber(name, it->second, "a finite number");
  }
  return value;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  read_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  read_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second == "true" || it->second == "1";
}

bool Flags::Has(const std::string& name) const {
  read_.insert(name);
  return values_.count(name) > 0;
}

void Flags::CheckAllRead() const {
  bool unread = false;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) > 0) continue;
    std::fprintf(stderr, "unknown flag --%s=%s\n", name.c_str(),
                 value.c_str());
    unread = true;
  }
  DDC_CHECK(!unread && "unknown flag");
}

bool Spec::Parse(const std::string& text, Spec* out, std::string* why) {
  *out = Spec();
  out->text_ = text;
  const size_t colon = text.find(':');
  out->name_ = text.substr(0, colon);
  if (out->name_.empty()) {
    *why = "empty name";
    return false;
  }
  if (colon == std::string::npos || colon + 1 == text.size()) return true;
  size_t start = colon + 1;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(start, comma - start);
    const size_t eq = item.find('=');
    if (eq == 0 || eq == std::string::npos) {  // Also catches empty items.
      const char* what = item.empty() ? "empty item"
                         : eq == 0    ? "empty key"
                                      : "missing '=', expected key=value";
      *why = "malformed item '" + item + "' (" + what + ")";
      return false;
    }
    out->params_.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    start = comma + 1;
  }
  return true;
}

const std::string* Spec::Find(const std::string& key) const {
  read_.insert(key);
  const std::string* found = nullptr;
  for (const auto& [k, v] : params_) {
    if (k == key) found = &v;  // The last occurrence wins.
  }
  return found;
}

void Spec::Refuse(const std::string& key, const std::string& value,
                  const std::string& what) const {
  if (refused_.empty()) refused_ = "key " + key + "=" + value + " " + what;
}

int64_t Spec::GetInt(const std::string& key, int64_t def, int64_t lo,
                     int64_t hi) const {
  const std::string* raw = Find(key);
  if (raw == nullptr) return def;
  int64_t value = 0;
  if (!ParseInt(*raw, &value)) {
    Refuse(key, *raw, "is not an integer");
    return def;
  }
  if (value < lo || value > hi) {
    Refuse(key, *raw,
           "is out of range [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]");
    return def;
  }
  return value;
}

double Spec::GetDouble(const std::string& key, double def) const {
  const std::string* raw = Find(key);
  if (raw == nullptr) return def;
  double value = 0;
  if (!ParseDouble(*raw, &value)) {
    Refuse(key, *raw, "is not a finite number");
    return def;
  }
  return value;
}

bool Spec::Problem(std::string* why) const {
  if (!refused_.empty()) {
    *why = refused_;
    return true;
  }
  for (const auto& [key, value] : params_) {
    if (read_.count(key) == 0) {
      *why = "unknown key '" + key + "'";
      return true;
    }
  }
  return false;
}

}  // namespace ddc
