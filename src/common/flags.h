#ifndef DDC_COMMON_FLAGS_H_
#define DDC_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ddc {

/// Minimal `--key=value` command-line parser used by the benchmark harnesses
/// and examples, so every experiment can be re-run at different scales
/// without editing code.
class Flags {
 public:
  /// Parses argv; entries must look like `--name=value` or `--name value`.
  /// Unknown flags are kept and readable; malformed arguments abort.
  Flags(int argc, char** argv);

  /// Returns the flag value or `def` when the flag is absent.
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  std::string GetString(const std::string& name, const std::string& def) const;
  bool GetBool(const std::string& name, bool def) const;

  /// True when the flag appeared on the command line.
  bool Has(const std::string& name) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Splits a comma-separated `key=value` sublist — the payload of compound
/// specs like `--scenario=burst:n=200000,dup=0.3` or
/// `--methods=sharded-double-approx:shards=8` — into `out`. Keys keep
/// document order (duplicates allowed; consumers decide). The empty string
/// yields an empty list. An empty item, an item without '=', or an empty
/// key makes it return false with that item in `bad_item`.
bool SplitKeyValueList(const std::string& list,
                       std::vector<std::pair<std::string, std::string>>* out,
                       std::string* bad_item);

/// SplitKeyValueList that aborts via DDC_CHECK on a malformed item, naming
/// what is wrong with it (empty item, missing '=', empty key).
std::vector<std::pair<std::string, std::string>> ParseKeyValueList(
    const std::string& list);

}  // namespace ddc

#endif  // DDC_COMMON_FLAGS_H_
