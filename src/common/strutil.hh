/**
 * @file
 * Small string helpers: printf-style formatting into std::string and
 * a few parsing/joining utilities used by stats dumping and the
 * bench harnesses.
 */

#ifndef EDGE_COMMON_STRUTIL_HH
#define EDGE_COMMON_STRUTIL_HH

#include <cstdarg>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace edge {

/** printf into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vprintf into a std::string. */
std::string vstrfmt(const char *fmt, std::va_list ap);

/** Join the given pieces with a separator. */
std::string join(const std::vector<std::string> &pieces,
                 const std::string &sep);

/** Split on a single-character separator (no empty-tail trimming). */
std::vector<std::string> split(const std::string &s, char sep);

/** Left-pad (right-align) a string to the given width with spaces. */
std::string padLeft(const std::string &s, std::size_t width);

/** Right-pad (left-align) a string to the given width with spaces. */
std::string padRight(const std::string &s, std::size_t width);

/**
 * Parse the whole of `s` as a decimal count no greater than `max`:
 * digits only, so a sign, a space, a trailing character, an empty
 * string, overflow or a value above `max` all give nullopt.
 */
std::optional<std::uint64_t>
parseCount(std::string_view s,
           std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/**
 * Parse the whole of `s` as a decimal fraction in [0, 1] ("0.25",
 * "1", "5e-1"): a sign, a space, a trailing character, an empty
 * string, nan or a value outside [0, 1] all give nullopt.
 */
std::optional<double> parseFraction(std::string_view s);

} // namespace edge

#endif // EDGE_COMMON_STRUTIL_HH
