/**
 * @file
 * One name table per enum. Next to each named enum sits a single
 * `{value, "name"}` array and an `enumNames(E)` hook returning it,
 * found by argument-dependent lookup:
 *
 *   inline constexpr EnumName<Color> kColorNames[] = {
 *       {Color::Red, "red"}, {Color::Blue, "blue"}};
 *   constexpr auto &enumNames(Color) { return kColorNames; }
 *   static_assert(enumTableCovers(kColorNames, Color::Blue));
 *
 * The static_assert names the enum's last enumerator, so a row that
 * is missing or out of enumerator order fails the build; a new last
 * enumerator must move it.
 *
 * enumName() and enumLookup() read that table in both directions.
 * Lookup reports a miss as nullopt: the caller decides whether an
 * unknown name is a usage error (the CLI) or an error reply (the
 * decoders of files and network input).
 */

#ifndef EDGE_COMMON_ENUM_NAMES_HH
#define EDGE_COMMON_ENUM_NAMES_HH

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace edge {

template <typename E>
struct EnumName
{
    E value;
    const char *name;
};

/** True iff row i of `table` names the enumerator whose value is i,
 *  and the last row names `last`: every enumerator up to `last` has
 *  exactly one row, in declaration order. */
template <typename E, std::size_t N>
constexpr bool
enumTableCovers(const EnumName<E> (&table)[N], E last)
{
    for (std::size_t i = 0; i < N; ++i)
        if (static_cast<std::size_t>(table[i].value) != i)
            return false;
    return N == static_cast<std::size_t>(last) + 1;
}

/** The table name of `value` ("?" if the table lacks it). */
template <typename E>
constexpr const char *
enumName(E value)
{
    for (const EnumName<E> &row : enumNames(E{}))
        if (row.value == value)
            return row.name;
    return "?";
}

/** The enumerator named `name`, or nullopt on an unknown name. */
template <typename E>
constexpr std::optional<E>
enumLookup(std::string_view name)
{
    for (const EnumName<E> &row : enumNames(E{}))
        if (name == row.name)
            return row.value;
    return std::nullopt;
}

/** Every name of E in table order, space-separated (help text and
 *  error messages). */
template <typename E>
std::string
enumNameList()
{
    std::string out;
    for (const EnumName<E> &row : enumNames(E{})) {
        if (!out.empty())
            out += ' ';
        out += row.name;
    }
    return out;
}

} // namespace edge

#endif // EDGE_COMMON_ENUM_NAMES_HH
