/**
 * @file
 * Unit tests for the common utilities: string formatting, the
 * statistics package, the deterministic RNG, and the ValState
 * algebra the DSRE protocol builds on.
 */

#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "chaos/sim_error.hh"
#include "chaos/trace_ring.hh"
#include "common/enum_names.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/strutil.hh"
#include "common/types.hh"
#include "core/processor.hh"
#include "fuzz/diff.hh"
#include "log/log_chaos.hh"
#include "serve/simnet/simnet.hh"

namespace edge {
namespace {

TEST(Strutil, FormatsLikePrintf)
{
    EXPECT_EQ(strfmt("x=%d y=%s", 42, "ok"), "x=42 y=ok");
    EXPECT_EQ(strfmt("%05u", 7u), "00007");
    EXPECT_EQ(strfmt("%.3f", 1.5), "1.500");
}

TEST(Strutil, FormatsLongStringsWithoutTruncation)
{
    std::string big(5000, 'a');
    EXPECT_EQ(strfmt("%s!", big.c_str()).size(), big.size() + 1);
}

TEST(Strutil, JoinAndSplitRoundTrip)
{
    std::vector<std::string> parts = {"a", "bb", "", "ccc"};
    EXPECT_EQ(join(parts, ","), "a,bb,,ccc");
    EXPECT_EQ(split("a,bb,,ccc", ','), parts);
    EXPECT_EQ(split("", ','), std::vector<std::string>{""});
}

TEST(Strutil, Padding)
{
    EXPECT_EQ(padLeft("x", 3), "  x");
    EXPECT_EQ(padRight("x", 3), "x  ");
    EXPECT_EQ(padLeft("abcd", 3), "abcd"); // never truncates
}

TEST(Strutil, ParseCountTakesWholeDecimalCountsOnly)
{
    EXPECT_EQ(parseCount("0"), 0u);
    EXPECT_EQ(parseCount("256", 256), 256u);
    EXPECT_EQ(parseCount("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    // A sign, trailing text, an empty string, overflow of the type
    // and a value above the cap are all rejected, never wrapped.
    EXPECT_EQ(parseCount("-1"), std::nullopt);
    EXPECT_EQ(parseCount("+1"), std::nullopt);
    EXPECT_EQ(parseCount("12abc"), std::nullopt);
    EXPECT_EQ(parseCount(" 12"), std::nullopt);
    EXPECT_EQ(parseCount(""), std::nullopt);
    EXPECT_EQ(parseCount("18446744073709551616"), std::nullopt);
    EXPECT_EQ(parseCount("4294967296", 256), std::nullopt);
    EXPECT_EQ(parseCount("257", 256), std::nullopt);

    // parseFraction holds fractions to the same whole-string rule,
    // and to the range [0, 1].
    EXPECT_EQ(parseFraction("0"), 0.0);
    EXPECT_EQ(parseFraction("0.25"), 0.25);
    EXPECT_EQ(parseFraction("1"), 1.0);
    EXPECT_EQ(parseFraction("5e-1"), 0.5);
    for (const char *junk : {"abc", "0.5x", "-0.1", "1.5", "nan", "",
                             "+0.5", " 0.5", "inf", "-0"})
        EXPECT_EQ(parseFraction(junk), std::nullopt) << "'" << junk << "'";
}

TEST(Stats, CounterBasics)
{
    StatSet set("t");
    Counter &c = set.counter("a.b", "desc");
    ++c;
    c += 4;
    EXPECT_EQ(set.counterValue("a.b"), 5u);
    EXPECT_TRUE(set.hasCounter("a.b"));
    EXPECT_FALSE(set.hasCounter("a.c"));
}

TEST(Stats, CounterIsSharedByName)
{
    StatSet set("t");
    Counter &c1 = set.counter("x", "d");
    Counter &c2 = set.counter("x", "other");
    ++c1;
    ++c2;
    EXPECT_EQ(set.counterValue("x"), 2u);
    EXPECT_EQ(&c1, &c2);
}

TEST(Stats, HistogramMoments)
{
    StatSet set("t");
    Histogram &h = set.histogram("h", "d");
    h.sample(0);
    h.sample(1);
    h.sample(2);
    h.sample(1024);
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.sum(), 1027u);
    EXPECT_EQ(h.maxValue(), 1024u);
    EXPECT_DOUBLE_EQ(h.mean(), 1027.0 / 4.0);
}

TEST(Stats, HistogramPercentiles)
{
    Histogram h;
    for (int i = 0; i < 90; ++i)
        h.sample(1);
    for (int i = 0; i < 10; ++i)
        h.sample(64);
    EXPECT_EQ(h.approxPercentile(0.5), 1u);
    EXPECT_GE(h.approxPercentile(0.99), 33u); // bucket upper bound
    EXPECT_EQ(h.approxPercentile(0.0), 0u);
}

TEST(Stats, ResetClearsEverything)
{
    StatSet set("t");
    Counter &c = set.counter("c", "d");
    Histogram &h = set.histogram("h", "d");
    c += 10;
    h.sample(5);
    set.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.samples(), 0u);
}

TEST(Stats, DumpMentionsEveryStat)
{
    StatSet set("myset");
    set.counter("alpha", "the alpha") += 3;
    set.histogram("beta", "the beta").sample(7);
    std::string d = set.dump();
    EXPECT_NE(d.find("myset"), std::string::npos);
    EXPECT_NE(d.find("alpha"), std::string::npos);
    EXPECT_NE(d.find("beta"), std::string::npos);
    EXPECT_NE(d.find("the alpha"), std::string::npos);
}

TEST(Stats, CounterNamesSorted)
{
    StatSet set("t");
    set.counter("zz", "");
    set.counter("aa", "");
    auto names = set.counterNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "aa");
    EXPECT_EQ(names[1], "zz");
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(123), b(123), c(124);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(123);
    for (int i = 0; i < 100; ++i)
        differs = differs || (a2.next() != c.next());
    EXPECT_TRUE(differs);
}

TEST(Rng, RangesRespectBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.below(17), 17u);
        auto v = r.range(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, ChanceIsRoughlyCalibrated)
{
    Rng r(99);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(1, 4);
    EXPECT_NEAR(hits, 2500, 250);
}

TEST(Types, AndStateAlgebra)
{
    using enum ValState;
    EXPECT_EQ(andState(Final, Final), Final);
    EXPECT_EQ(andState(Final, Spec), Spec);
    EXPECT_EQ(andState(Spec, Final), Spec);
    EXPECT_EQ(andState(Spec, Spec), Spec);
}

TEST(Types, DoubleWordRoundTrip)
{
    for (double d : {0.0, 1.5, -3.25, 1e300, -1e-300}) {
        EXPECT_EQ(wordToDouble(doubleToWord(d)), d);
    }
}

/** Names and values of E's table are each unique, and both
 *  directions of the lookup agree on every row. */
template <typename E>
void
expectOneToOne()
{
    std::set<std::string> names;
    std::set<std::underlying_type_t<E>> values;
    for (const EnumName<E> &row : enumNames(E{})) {
        SCOPED_TRACE(row.name);
        EXPECT_TRUE(names.insert(row.name).second);
        EXPECT_TRUE(values.insert(static_cast<std::underlying_type_t<E>>(
                                      row.value))
                        .second);
        EXPECT_STREQ(enumName(row.value), row.name);
        EXPECT_EQ(enumLookup<E>(row.name), row.value);
    }
    EXPECT_FALSE(enumLookup<E>("no-such-name"));
}

TEST(EnumNames, EveryTableIsOneToOne)
{
    expectOneToOne<chaos::Mutation>();
    expectOneToOne<chaos::Profile>();
    expectOneToOne<chaos::FaultEvent::Site>();
    expectOneToOne<chaos::SimError::Reason>();
    expectOneToOne<chaos::TraceEvent::Kind>();
    expectOneToOne<lsq::Recovery>();
    expectOneToOne<pred::DepPolicy>();
    expectOneToOne<log::LogCrashPoint>();
    expectOneToOne<serve::simnet::SimProfile>();
    expectOneToOne<serve::simnet::EvKind>();
    expectOneToOne<fuzz::Outcome>();
}

TEST(EnumNames, CoverageRejectsMissingMisorderedAndExtraRows)
{
    enum class C { A, B, D };
    constexpr EnumName<C> missing[] = {{C::A, "a"}, {C::D, "d"}};
    constexpr EnumName<C> swapped[] = {
        {C::B, "b"}, {C::A, "a"}, {C::D, "d"}};
    constexpr EnumName<C> whole[] = {{C::A, "a"}, {C::B, "b"}, {C::D, "d"}};
    EXPECT_FALSE(enumTableCovers(missing, C::D));
    EXPECT_FALSE(enumTableCovers(swapped, C::D));
    EXPECT_FALSE(enumTableCovers(whole, C::B)) << "a row past `last`";
    EXPECT_TRUE(enumTableCovers(whole, C::D));
}

TEST(EnumNames, NameListIsTableOrder)
{
    EXPECT_EQ(enumNameList<chaos::Profile>(), "none light heavy net mem lsq");
    EXPECT_STREQ(enumName(static_cast<lsq::Recovery>(9)), "?");
}

} // namespace
} // namespace edge
