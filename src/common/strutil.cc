#include "common/strutil.hh"

#include <charconv>
#include <cstdio>

namespace edge {

std::string
vstrfmt(const char *fmt, std::va_list ap)
{
    std::va_list ap_copy;
    va_copy(ap_copy, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (n <= 0)
        return std::string();
    std::string out(static_cast<std::size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap);
    return out;
}

std::string
strfmt(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string out = vstrfmt(fmt, ap);
    va_end(ap);
    return out;
}

std::string
join(const std::vector<std::string> &pieces, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < pieces.size(); ++i) {
        if (i)
            out += sep;
        out += pieces[i];
    }
    return out;
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::string
padLeft(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return std::string(width - s.size(), ' ') + s;
}

std::string
padRight(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return s + std::string(width - s.size(), ' ');
}

std::optional<std::uint64_t>
parseCount(std::string_view s, std::uint64_t max)
{
    // from_chars takes no '+' and, for an unsigned type, no '-'.
    std::uint64_t v = 0;
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || ptr != end || v > max)
        return std::nullopt;
    return v;
}

std::optional<double>
parseFraction(std::string_view s)
{
    // from_chars takes no '+' and no space, but would read "-0"; nan
    // fails the range test.
    if (s.empty() || s.front() == '-')
        return std::nullopt;
    double v = 0;
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || ptr != end || !(v >= 0 && v <= 1))
        return std::nullopt;
    return v;
}

} // namespace edge
