/**
 * @file
 * The one codec for structs that cross a pipe, a socket or the disk.
 * A struct is a table, `Fields<S>::rows`: one row per member, in JSON
 * emission order, and a nested struct is one row whose value is that
 * struct's own table. structToJson and structFromJson read the rows,
 * so a member is named exactly once.
 *
 * Decoding is strict: a wrongly typed value is an error that names
 * its path ("core.hop_latency: expected an integer in [0, ...]",
 * "failures[2].result.cycles: ..."). An absent key keeps its current
 * value and an unknown key is skipped, so a document written by an
 * older build, whose extra keys this build no longer has, still loads.
 */

#ifndef EDGE_TRIAGE_FIELDS_HH
#define EDGE_TRIAGE_FIELDS_HH

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "triage/jsonio.hh"

namespace edge::triage {

/** One settable config field, addressed by its JSON path. */
struct ConfigKey
{
    std::string path;  ///< e.g. "core.num_frames"
    const char *doc;
    /** Default value as compact JSON; empty for a nested struct. */
    std::string value;
};

template <typename S>
struct Field
{
    const char *name;
    const char *doc;
    JsonValue (*save)(const S &);
    bool (*load)(const JsonValue &, S *, std::string *err);
    /** Nested-struct rows only: lists the child's keys under a
     *  prefix (null for leaf fields). */
    void (*keys)(const std::string &prefix, std::vector<ConfigKey> *out);
};

/** Specialised with `static constexpr Field<S> rows[]`. */
template <typename S>
struct Fields;

template <typename T>
struct IsVector : std::false_type
{
};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type
{
};
template <typename T>
struct IsPair : std::false_type
{
};
template <typename A, typename B>
struct IsPair<std::pair<A, B>> : std::true_type
{
};

/** A named histogram snapshot, encoded as one object. */
using NamedHistogram = std::pair<std::string, Histogram>;

/** Types with a table of their own. */
template <typename T>
constexpr bool kNested = std::is_class_v<T> &&
                         !std::is_same_v<T, std::string> &&
                         !IsVector<T>::value && !IsPair<T>::value;

/** Types encoded as a JSON object. */
template <typename T>
constexpr bool kObject = kNested<T> || std::is_same_v<T, NamedHistogram>;

/** Prefix a member's decode error with its name: "core.rows: ..."
 *  when the error is inside a nested object, "allowed_events[1]: ..."
 *  inside an array, and "core: expected an object" otherwise. */
inline void
prefixError(const std::string &name, bool inChild, std::string *err)
{
    const bool inArray = !err->empty() && err->front() == '[';
    *err = name + (inArray ? "" : inChild ? "." : ": ") + *err;
}

/** Encode the rows into `o` (after any members it already has). */
template <typename S>
JsonValue
structToJson(const S &s, JsonValue o = JsonValue::object())
{
    for (const Field<S> &f : Fields<S>::rows)
        o.set(f.name, f.save(s));
    return o;
}

/** Absent keys keep their current value; errors name the field path. */
template <typename S>
bool
structFromJson(const JsonValue &o, S *s, std::string *err)
{
    for (const Field<S> &f : Fields<S>::rows) {
        const JsonValue *v = o.get(f.name);
        if (v && !f.load(*v, s, err)) {
            prefixError(f.name, f.keys && v->isObject(), err);
            return false;
        }
    }
    return true;
}

template <typename S>
void
listKeys(const std::string &prefix, std::vector<ConfigKey> *out)
{
    const S defaults{};
    for (const Field<S> &f : Fields<S>::rows) {
        const std::string path = prefix + f.name;
        out->push_back(
            {path, f.doc, f.keys ? "" : f.save(defaults).dumpCompact()});
        if (f.keys)
            f.keys(path + ".", out);
    }
}

template <typename T>
bool decode(const JsonValue &j, T *v, std::string *err);

/** Decode member `key` of object `o` into *v: an absent key keeps *v,
 *  and an error is prefixed with the key. */
template <typename T>
bool
memberFromJson(const JsonValue &o, const std::string &key, T *v,
               std::string *err)
{
    const JsonValue *j = o.get(key);
    if (!j || decode(*j, v, err))
        return true;
    prefixError(key, kObject<T> && j->isObject(), err);
    return false;
}

/** Decode item `i` of array `a`; an error is prefixed with "[i]". */
template <typename T>
bool
itemFromJson(const JsonValue &a, std::size_t i, T *v, std::string *err)
{
    const JsonValue &j = a.items()[i];
    if (decode(j, v, err))
        return true;
    prefixError('[' + std::to_string(i) + ']', kObject<T> && j.isObject(),
                err);
    return false;
}

template <typename T>
JsonValue
encode(const T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return JsonValue::boolean(v);
    } else if constexpr (std::is_enum_v<T>) {
        return JsonValue::str(enumName(v));
    } else if constexpr (std::is_integral_v<T>) {
        return JsonValue::u64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
        return JsonValue::str(v);
    } else if constexpr (kNested<T>) {
        return structToJson(v);
    } else if constexpr (std::is_same_v<T, NamedHistogram>) {
        JsonValue o = JsonValue::object();
        o.set("name", encode(v.first));
        o.set("buckets", encode(v.second.buckets()));
        o.set("samples", encode(v.second.samples()));
        o.set("sum", encode(v.second.sum()));
        o.set("max", encode(v.second.maxValue()));
        return o;
    } else if constexpr (IsPair<T>::value) {
        JsonValue a = JsonValue::array();
        a.push(encode(v.first));
        a.push(encode(v.second));
        return a;
    } else {
        JsonValue a = JsonValue::array();
        for (const auto &e : v)
            a.push(encode(e));
        return a;
    }
}

template <typename T>
bool
decode(const JsonValue &j, T *v, std::string *err)
{
    if constexpr (std::is_same_v<T, bool>) {
        if (j.type() == JsonValue::Type::Bool) {
            *v = j.asBool();
            return true;
        }
        *err = "expected true or false";
    } else if constexpr (std::is_enum_v<T>) {
        return enumFromJson(j, v, err);
    } else if constexpr (std::is_integral_v<T>) {
        constexpr std::uint64_t max = std::numeric_limits<T>::max();
        if (j.type() == JsonValue::Type::Number && j.asI64() >= 0 &&
            j.asU64() <= max) {
            *v = static_cast<T>(j.asU64());
            return true;
        }
        *err = "expected an integer in [0, " + std::to_string(max) + "]";
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (j.type() == JsonValue::Type::String) {
            *v = j.asString();
            return true;
        }
        *err = "expected a string";
    } else if constexpr (kNested<T>) {
        if (j.isObject())
            return structFromJson(j, v, err);
        *err = "expected an object";
    } else if constexpr (std::is_same_v<T, NamedHistogram>) {
        std::vector<std::uint64_t> buckets;
        std::uint64_t samples = 0, sum = 0, max = 0;
        if (!j.isObject()) {
            *err = "expected an object";
            return false;
        }
        if (!memberFromJson(j, "name", &v->first, err) ||
            !memberFromJson(j, "buckets", &buckets, err) ||
            !memberFromJson(j, "samples", &samples, err) ||
            !memberFromJson(j, "sum", &sum, err) ||
            !memberFromJson(j, "max", &max, err))
            return false;
        v->second.restore(std::move(buckets), samples, sum, max);
        return true;
    } else if constexpr (IsPair<T>::value) {
        if (j.isArray() && j.items().size() == 2)
            return itemFromJson(j, 0, &v->first, err) &&
                   itemFromJson(j, 1, &v->second, err);
        *err = "expected a [name, value] pair";
    } else {
        if (!j.isArray()) {
            *err = "expected an array";
            return false;
        }
        T out(j.items().size());
        for (std::size_t i = 0; i < out.size(); ++i)
            if (!itemFromJson(j, i, &out[i], err))
                return false;
        *v = std::move(out);
        return true;
    }
    return false;
}

template <typename>
struct MemberOf;
template <typename S, typename T>
struct MemberOf<T S::*>
{
    using Struct = S;
    using Type = T;
};

/** The table row of member `M`. */
template <auto M>
constexpr Field<typename MemberOf<decltype(M)>::Struct>
row(const char *name, const char *doc = "")
{
    using S = typename MemberOf<decltype(M)>::Struct;
    using T = typename MemberOf<decltype(M)>::Type;
    Field<S> f{name, doc, [](const S &s) { return encode(s.*M); },
               [](const JsonValue &j, S *s, std::string *err) {
                   return decode(j, &(s->*M), err);
               },
               nullptr};
    if constexpr (kNested<T>)
        f.keys = &listKeys<T>;
    return f;
}

} // namespace edge::triage

#endif // EDGE_TRIAGE_FIELDS_HH
