// Count-valued command-line arguments for the example CLIs.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace rmacsim {

// A non-negative integer argument that fits T: digits only, so a sign, a
// fraction, trailing text or an out-of-range value prints one `error:` line
// naming `flag` and exits 2.
template <class T = unsigned>
T count_arg(const char* flag, const char* text) {
  static_assert(std::is_unsigned_v<T>, "from_chars rejects a sign only for unsigned types");
  const std::string_view v{text};
  T n{};
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
  if (ec != std::errc{} || end != v.data() + v.size()) {
    std::fprintf(stderr, "error: %s expects a non-negative integer (got \"%s\")\n", flag, text);
    std::exit(2);
  }
  return n;
}

}  // namespace rmacsim
