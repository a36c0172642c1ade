// Strict command-line flags for the kernel benches (bench_agg_micro,
// bench_hier): an unknown flag or a bad count stops the bench with a
// message and exit status 2 before it measures or writes anything.
#pragma once

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

namespace bench_cli {

/// Prints `message` and the bench's usage line, then exits with status 2.
[[noreturn]] inline void fail(std::string_view bench, std::string_view message,
                              std::string_view usage) {
  std::cerr << bench << ": " << message << "\nusage: " << bench << ' ' << usage << '\n';
  std::exit(2);
}

/// True when `arg` is `prefix` followed by a value, stored in *value.
inline bool take_value(std::string_view arg, std::string_view prefix, std::string_view* value) {
  if (!arg.starts_with(prefix)) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// The integer >= 1 that `text` spells in full; anything else fails.
inline int positive_count(std::string_view bench, std::string_view flag, std::string_view text,
                          std::string_view usage) {
  int value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || value < 1) {
    fail(bench, std::string(flag) + " needs an integer >= 1, got \"" + std::string(text) + "\"",
         usage);
  }
  return value;
}

}  // namespace bench_cli
