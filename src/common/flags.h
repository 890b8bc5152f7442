#ifndef DDC_COMMON_FLAGS_H_
#define DDC_COMMON_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace ddc {

/// Minimal `--key=value` command-line parser used by `ddc_driver`,
/// perfbench and the examples, so every experiment can be re-run at
/// different scales without editing code. Its numbers follow the same rules
/// as a Spec's values.
class Flags {
 public:
  /// Parses argv; entries must look like `--name=value` or `--name value`.
  /// Every flag is kept and readable; malformed arguments abort. The
  /// getters and Has record the names they are asked for, so a main that
  /// has read its flags can refuse the rest with CheckAllRead.
  Flags(int argc, char** argv);

  /// Returns the flag value or `def` when the flag is absent. A numeric
  /// value must parse whole (a double must also be finite): otherwise the
  /// call aborts, naming the flag and its value.
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  std::string GetString(const std::string& name, const std::string& def) const;
  bool GetBool(const std::string& name, bool def) const;

  /// True when the flag appeared on the command line.
  bool Has(const std::string& name) const;

  /// Aborts, naming each one, when the command line carries a flag that no
  /// getter or Has call asked for: a misspelt or unsupported flag would
  /// otherwise run the default experiment silently.
  void CheckAllRead() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

/// A named spec with key=value parameters, the one grammar of scenario specs
/// (`--scenario=burst:n=200000,dup=0.3`) and method specs
/// (`--methods=sharded-double-approx:shards=8`):
///
///   spec   := name [ ':' params ]
///   params := key '=' value ( ',' key '=' value )*
///
/// `name:` means no keys. Keys keep document order and may repeat; a getter
/// reads the last occurrence. Nothing here aborts: the getters record every
/// key they are asked for and every value they refuse, and the caller, once
/// it has read what it knows, asks Problem what to refuse — a typo or a
/// malformed value must never run a default silently.
class Spec {
 public:
  /// Parses `text` into `*out`. False, with the reason in `*why`, on an
  /// empty name or a malformed item: an empty item, an item without '=',
  /// or an empty key.
  static bool Parse(const std::string& text, Spec* out, std::string* why);

  const std::string& name() const { return name_; }
  /// The spec as written, for provenance.
  const std::string& text() const { return text_; }

  /// The value of `key`, or `def` when the key is absent. A value follows
  /// Flags' rules — it must parse whole, and a double must be finite — and
  /// an integer must lie in [lo, hi]; a value that breaks them reads as
  /// `def` and is reported by Problem.
  int64_t GetInt(const std::string& key, int64_t def,
                 int64_t lo = std::numeric_limits<int64_t>::min(),
                 int64_t hi = std::numeric_limits<int64_t>::max()) const;
  double GetDouble(const std::string& key, double def) const;

  /// True, with the reason in `*why`, when a getter refused a value (the
  /// first one refused) or, failing that, when the spec carries a key no
  /// getter asked for (the first one in document order).
  bool Problem(std::string* why) const;

 private:
  const std::string* Find(const std::string& key) const;
  void Refuse(const std::string& key, const std::string& value,
              const std::string& what) const;

  std::string name_;
  std::string text_;
  std::vector<std::pair<std::string, std::string>> params_;
  mutable std::set<std::string> read_;
  mutable std::string refused_;
};

}  // namespace ddc

#endif  // DDC_COMMON_FLAGS_H_
