// Minimal command-line flag parsing shared by the bench/example binaries.
// Accepts --key=value, --key value, and bare boolean --flag forms.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pob {

class Args {
 public:
  Args(int argc, const char* const* argv);

  bool has(std::string_view flag) const;

  /// Integer flags throw std::invalid_argument naming the flag and the
  /// offending text (`--n: expected an integer, got "abc"`) on anything but
  /// a whole base-10 integer in range.
  std::int64_t get_int(std::string_view flag, std::int64_t fallback) const;
  /// A count or size in [0, 2^32): rejects negatives by name, so `--k=-3`
  /// fails here instead of wrapping into an allocation that cannot succeed.
  std::uint32_t get_uint(std::string_view flag, std::uint32_t fallback) const;
  /// A finite decimal number, the whole text (`1.5x`, `abc` and `inf` throw
  /// `--leave-pct: expected a number, got "abc"`).
  double get_double(std::string_view flag, double fallback) const;
  std::string get_string(std::string_view flag, std::string_view fallback) const;

  /// Comma-separated integer list, e.g. --degrees=10,20,40.
  std::vector<std::int64_t> get_int_list(std::string_view flag,
                                         std::vector<std::int64_t> fallback) const;

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string, std::less<>> values_;
};

}  // namespace pob
