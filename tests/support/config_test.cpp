// KvFile / KvReader — the `.scn` key=value layer under the scenario files.
#include "support/config.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>

namespace explframe {
namespace {

TEST(KvFile, ParsesPairsCommentsAndBlanks) {
  const std::string text =
      "# a scenario\n"
      "\n"
      "cipher = aes128\n"
      "  trials=8\n"
      "title = Spaces  inside the value are kept\n";
  std::string error;
  const auto kv = KvFile::parse(text, &error);
  ASSERT_TRUE(kv.has_value()) << error;
  EXPECT_EQ(kv->size(), 3u);
  ASSERT_NE(kv->find("cipher"), nullptr);
  EXPECT_EQ(*kv->find("cipher"), "aes128");
  ASSERT_NE(kv->find("trials"), nullptr);
  EXPECT_EQ(*kv->find("trials"), "8");
  EXPECT_EQ(*kv->find("title"), "Spaces  inside the value are kept");
  EXPECT_EQ(kv->find("absent"), nullptr);
}

TEST(KvFile, EmptyValueIsAllowed) {
  const auto kv = KvFile::parse("paper_ref =\n");
  ASSERT_TRUE(kv.has_value());
  EXPECT_EQ(*kv->find("paper_ref"), "");
}

TEST(KvFile, RejectsLineWithoutEquals) {
  std::string error;
  EXPECT_FALSE(KvFile::parse("cipher aes128\n", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_NE(error.find("key = value"), std::string::npos);
}

TEST(KvFile, RejectsBadKeys) {
  std::string error;
  EXPECT_FALSE(KvFile::parse("= 3\n", &error).has_value());
  EXPECT_FALSE(KvFile::parse("two words = 3\n", &error).has_value());
  EXPECT_FALSE(KvFile::parse("k$y = 3\n", &error).has_value());
}

TEST(KvFile, RejectsDuplicateKeyWithLineNumber) {
  std::string error;
  EXPECT_FALSE(
      KvFile::parse("trials = 8\n# gap\ntrials = 9\n", &error).has_value());
  EXPECT_NE(error.find("line 3"), std::string::npos);
  EXPECT_NE(error.find("duplicate key 'trials'"), std::string::npos);
}

TEST(KvFile, SerializeRoundTripsCanonically) {
  KvFile kv;
  kv.set("b", "2");
  kv.set("a", "1");
  kv.set("b", "3");  // overwrite keeps position
  EXPECT_EQ(kv.serialize(), "b = 3\na = 1\n");
  const auto reparsed = KvFile::parse(kv.serialize());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->serialize(), kv.serialize());
}

TEST(KvFile, SetCanonicalizesValuesForRoundTrip) {
  KvFile kv;
  kv.set("a", "  padded  ");
  EXPECT_EQ(*kv.find("a"), "padded");  // what a re-parse would yield
  const auto reparsed = KvFile::parse(kv.serialize());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(*reparsed->find("a"), *kv.find("a"));
}

TEST(KvFileDeathTest, SetRejectsMultiLineValues) {
  KvFile kv;
  EXPECT_DEATH(kv.set("a", "one\ntwo"), "single-line");
}

TEST(KvFile, LastLineWithoutNewlineParses) {
  const auto kv = KvFile::parse("a = 1");
  ASSERT_TRUE(kv.has_value());
  EXPECT_EQ(*kv->find("a"), "1");
}

TEST(KvReader, TypedGettersAndFallbacks) {
  const auto kv = KvFile::parse(
      "u = 18446744073709551615\nb1 = yes\nb0 = 0\ns = text\n");
  ASSERT_TRUE(kv.has_value());
  KvReader r(*kv);
  EXPECT_EQ(r.get_u64("u", 0), 18446744073709551615ULL);
  EXPECT_TRUE(r.get_bool("b1", false));
  EXPECT_FALSE(r.get_bool("b0", true));
  EXPECT_EQ(r.get_string("s", ""), "text");
  EXPECT_EQ(r.get_u32("absent", 7u), 7u);  // fallback, not an error
  EXPECT_FALSE(r.finish().has_value());
}

TEST(KvReader, MalformedUnsignedIsAnError) {
  for (const char* bad : {"trials = eight\n", "trials = -3\n",
                          "trials = 8x\n", "trials = 99999999999999999999\n",
                          "trials =\n"}) {
    const auto kv = KvFile::parse(bad);
    ASSERT_TRUE(kv.has_value()) << bad;
    KvReader r(*kv);
    EXPECT_EQ(r.get_u64("trials", 5), 5u) << bad;  // fallback on error
    const auto err = r.finish();
    ASSERT_TRUE(err.has_value()) << bad;
    EXPECT_NE(err->find("key 'trials'"), std::string::npos) << bad;
  }
}

/// The edge cases of the integer grammar: digits only, full uint64 range.
TEST(KvReader, U64AcceptsExactlyTheDecimalDigits) {
  const std::pair<const char*, std::optional<std::uint64_t>> cases[] = {
      {"+1", std::nullopt},
      {"-1", std::nullopt},
      {"0x10", std::nullopt},
      {"18446744073709551615", 18446744073709551615ULL},
      {"18446744073709551616", std::nullopt},
  };
  for (const auto& [text, want] : cases) {
    const auto kv = KvFile::parse(std::string("n = ") + text + "\n");
    ASSERT_TRUE(kv.has_value()) << text;
    KvReader r(*kv);
    EXPECT_EQ(r.get_u64("n", 5), want.value_or(5)) << text;
    EXPECT_EQ(r.finish().has_value(), !want.has_value()) << text;
  }
}

TEST(KvReader, U32RejectsOverflow) {
  const auto kv = KvFile::parse("trials = 4294967296\n");
  ASSERT_TRUE(kv.has_value());
  KvReader r(*kv);
  EXPECT_EQ(r.get_u32("trials", 1), 1u);
  EXPECT_TRUE(r.finish().has_value());
}

TEST(KvReader, MalformedBoolIsAnErrorAndTheFirstErrorWins) {
  const auto kv = KvFile::parse("flag = maybe\nratio = 1.2.3\n");
  ASSERT_TRUE(kv.has_value());
  KvReader r(*kv);
  EXPECT_TRUE(r.get_bool("flag", true));  // fallback
  EXPECT_EQ(r.get_u64("ratio", 9), 9u);
  const auto err = r.finish();
  ASSERT_TRUE(err.has_value());
  // First error wins: the bool came first.
  EXPECT_NE(err->find("key 'flag'"), std::string::npos);
}

TEST(KvReader, UnconsumedKeyIsUnknown) {
  const auto kv = KvFile::parse("trials = 8\ntypo_key = 1\n");
  ASSERT_TRUE(kv.has_value());
  KvReader r(*kv);
  EXPECT_EQ(r.get_u32("trials", 0), 8u);
  const auto err = r.finish();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, "unknown key 'typo_key'");
}

}  // namespace
}  // namespace explframe
