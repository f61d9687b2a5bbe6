#include "src/support/strings.h"

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace alpa {

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int size = vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string result;
  if (size > 0) {
    result.resize(static_cast<size_t>(size));
    vsnprintf(result.data(), static_cast<size_t>(size) + 1, format, args_copy);
  }
  va_end(args_copy);
  return result;
}

namespace {

std::string WithSuffix(double value, double scale, const char* const* suffixes, int num_suffixes) {
  int idx = 0;
  while (idx + 1 < num_suffixes && value >= scale) {
    value /= scale;
    ++idx;
  }
  return StrFormat("%.2f %s", value, suffixes[idx]);
}

}  // namespace

std::string HumanBytes(double bytes) {
  static const char* const kSuffixes[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  return WithSuffix(bytes, 1024.0, kSuffixes, 6);
}

std::string HumanSeconds(double seconds) {
  if (seconds >= 1.0) {
    return StrFormat("%.3f s", seconds);
  }
  if (seconds >= 1e-3) {
    return StrFormat("%.3f ms", seconds * 1e3);
  }
  return StrFormat("%.3f us", seconds * 1e6);
}

std::string HumanFlops(double flops) {
  static const char* const kSuffixes[] = {"FLOP", "KFLOP", "MFLOP", "GFLOP", "TFLOP", "PFLOP"};
  return WithSuffix(flops, 1000.0, kSuffixes, 6);
}

std::optional<int64_t> ParseNonNegativeInt(std::string_view text, int64_t max) {
  int64_t value = -1;
  const char* end = text.data() + text.size();
  const auto [parsed_end, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || parsed_end != end || value < 0 || value > max) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> ParseNonNegativeDouble(std::string_view text) {
  double value = -1.0;
  const char* end = text.data() + text.size();
  const auto [parsed_end, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || parsed_end != end || !std::isfinite(value) || !(value >= 0.0)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace alpa
