// Small string helpers (printf-style formatting, joining) used across the
// code base. GCC 12 lacks std::format, so we wrap vsnprintf.
#ifndef SRC_SUPPORT_STRINGS_H_
#define SRC_SUPPORT_STRINGS_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace alpa {

// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...) __attribute__((format(printf, 1, 2)));

// Joins the elements of `parts` with `sep`, streaming each element.
template <typename Container>
std::string StrJoin(const Container& parts, const std::string& sep) {
  std::ostringstream out;
  bool first = true;
  for (const auto& part : parts) {
    if (!first) {
      out << sep;
    }
    out << part;
    first = false;
  }
  return out.str();
}

// Formats a byte count with a human-readable suffix, e.g. "1.50 GB".
std::string HumanBytes(double bytes);

// Formats a duration given in seconds, e.g. "12.3 ms".
std::string HumanSeconds(double seconds);

// Formats a FLOP count, e.g. "2.40 TFLOP".
std::string HumanFlops(double flops);

// Strict command-line number parsing: `text` must be one non-negative
// decimal number and nothing else. "sixty", "10k", "4x", "-1", "" and
// values above `max` give nullopt instead of atoi's silent 0 or prefix.
std::optional<int64_t> ParseNonNegativeInt(std::string_view text,
                                           int64_t max = std::numeric_limits<int64_t>::max());
// The same for a finite double ("0.5", "2e-3"); "inf" and "nan" fail too.
std::optional<double> ParseNonNegativeDouble(std::string_view text);

}  // namespace alpa

#endif  // SRC_SUPPORT_STRINGS_H_
