#include "common/flags.h"

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

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& name, double def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : std::strtod(it->second.c_str(), nullptr);
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second == "true" || it->second == "1";
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
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
