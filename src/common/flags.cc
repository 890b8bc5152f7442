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
  const std::string& raw = it->second;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(raw.c_str(), &end, 10);
  if (raw.empty() || end != raw.c_str() + raw.size() || errno != 0) {
    MalformedNumber(name, raw, "an integer");
  }
  return static_cast<int64_t>(value);
}

double Flags::GetDouble(const std::string& name, double def) const {
  read_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& raw = it->second;
  char* end = nullptr;
  const double value = std::strtod(raw.c_str(), &end);
  if (raw.empty() || end != raw.c_str() + raw.size() || !std::isfinite(value)) {
    MalformedNumber(name, raw, "a finite number");
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

bool SplitKeyValueList(const std::string& list,
                       std::vector<std::pair<std::string, std::string>>* out,
                       std::string* bad_item) {
  out->clear();
  if (list.empty()) return true;
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    std::string item = list.substr(start, comma - start);
    const size_t eq = item.find('=');
    if (eq == 0 || eq == std::string::npos) {  // Also catches empty items.
      *bad_item = std::move(item);
      return false;
    }
    out->emplace_back(item.substr(0, eq), item.substr(eq + 1));
    start = comma + 1;
  }
  return true;
}

std::vector<std::pair<std::string, std::string>> ParseKeyValueList(
    const std::string& list) {
  std::vector<std::pair<std::string, std::string>> entries;
  std::string bad;
  if (!SplitKeyValueList(list, &entries, &bad)) {
    DDC_CHECK(!bad.empty() && "empty item in key=value list");
    DDC_CHECK(bad.find('=') != std::string::npos &&
              "key=value item missing '='");
    DDC_CHECK(bad.front() != '=' && "empty key in key=value list");
  }
  return entries;
}

}  // namespace ddc
