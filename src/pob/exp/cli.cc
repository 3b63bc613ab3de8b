#include "pob/exp/cli.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace pob {
namespace {

std::invalid_argument bad_value(std::string_view flag, std::string_view expected,
                                std::string_view text) {
  return std::invalid_argument("--" + std::string(flag) + ": expected " +
                               std::string(expected) + ", got \"" +
                               std::string(text) + "\"");
}

// The whole of `text` as a base-10 integer, or a named error.
std::int64_t parse_int(std::string_view flag, std::string_view text) {
  std::int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) throw bad_value(flag, "an integer", text);
  return value;
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument: " + token);
    }
    token.erase(0, 2);
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      values_[token.substr(0, eq)] = token.substr(eq + 1);
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      values_[token] = argv[++i];
    } else {
      values_[token] = "";  // bare boolean flag
    }
  }
}

bool Args::has(std::string_view flag) const { return values_.count(flag) > 0; }

std::int64_t Args::get_int(std::string_view flag, std::int64_t fallback) const {
  const auto it = values_.find(flag);
  if (it == values_.end() || it->second.empty()) return fallback;
  return parse_int(flag, it->second);
}

std::uint32_t Args::get_uint(std::string_view flag, std::uint32_t fallback) const {
  const auto it = values_.find(flag);
  if (it == values_.end() || it->second.empty()) return fallback;
  const std::int64_t value = parse_int(flag, it->second);
  if (value < 0) throw bad_value(flag, "a non-negative integer", it->second);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    throw bad_value(flag, "an integer below 2^32", it->second);
  }
  return static_cast<std::uint32_t>(value);
}

double Args::get_double(std::string_view flag, double fallback) const {
  const auto it = values_.find(flag);
  if (it == values_.end() || it->second.empty()) return fallback;
  const std::string& text = it->second;
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
    throw bad_value(flag, "a number", text);
  }
  return value;
}

std::string Args::get_string(std::string_view flag, std::string_view fallback) const {
  const auto it = values_.find(flag);
  if (it == values_.end()) return std::string(fallback);
  return it->second;
}

std::vector<std::int64_t> Args::get_int_list(std::string_view flag,
                                             std::vector<std::int64_t> fallback) const {
  const auto it = values_.find(flag);
  if (it == values_.end() || it->second.empty()) return fallback;
  std::vector<std::int64_t> out;
  std::string current;
  for (const char ch : it->second + ",") {
    if (ch == ',') {
      if (!current.empty()) out.push_back(parse_int(flag, current));
      current.clear();
    } else {
      current.push_back(ch);
    }
  }
  return out;
}

}  // namespace pob
