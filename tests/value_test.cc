#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/random.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace silkroute {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_int64());
  EXPECT_FALSE(v.is_double());
  EXPECT_FALSE(v.is_string());
}

TEST(ValueTest, TypedConstructionAndAccess) {
  EXPECT_EQ(Value::Int64(42).AsInt64(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
}

TEST(ValueTest, AsNumericWidensInt) {
  EXPECT_DOUBLE_EQ(Value::Int64(3).AsNumeric(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Double(3.5).AsNumeric(), 3.5);
}

TEST(ValueTest, NullsCompareEqualAndFirst) {
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_LT(Value::Null().Compare(Value::Int64(0)), 0);
  EXPECT_LT(Value::Null().Compare(Value::String("")), 0);
  EXPECT_GT(Value::Int64(-100).Compare(Value::Null()), 0);
}

TEST(ValueTest, NumericCompareCrossType) {
  EXPECT_EQ(Value::Int64(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int64(3).Compare(Value::Double(3.5)), 0);
  EXPECT_GT(Value::Double(4.0).Compare(Value::Int64(3)), 0);
}

TEST(ValueTest, StringsCompareLexicographically) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
  EXPECT_GT(Value::String("b").Compare(Value::String("a")), 0);
}

TEST(ValueTest, NumericsSortBeforeStrings) {
  EXPECT_LT(Value::Int64(999999).Compare(Value::String("0")), 0);
}

TEST(ValueTest, SqlEqualsRejectsNulls) {
  EXPECT_FALSE(Value::Null().SqlEquals(Value::Null()));
  EXPECT_FALSE(Value::Null().SqlEquals(Value::Int64(1)));
  EXPECT_TRUE(Value::Int64(1).SqlEquals(Value::Int64(1)));
  EXPECT_TRUE(Value::Int64(1).SqlEquals(Value::Double(1.0)));
}

TEST(ValueTest, HashConsistentWithCompare) {
  EXPECT_EQ(Value::Int64(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  Random rng(7);
  for (int i = 0; i < 200; ++i) {
    int64_t x = rng.Uniform(-1000, 1000);
    Value a = Value::Int64(x);
    Value b = Value::Double(static_cast<double>(x));
    ASSERT_EQ(a.Compare(b), 0);
    ASSERT_EQ(a.Hash(), b.Hash());
  }
}

TEST(ValueTest, ByteSize) {
  EXPECT_EQ(Value::Null().ByteSize(), 1u);
  EXPECT_EQ(Value::Int64(1).ByteSize(), 8u);
  EXPECT_EQ(Value::Double(1.0).ByteSize(), 8u);
  EXPECT_EQ(Value::String("abcd").ByteSize(), 8u);  // 4 payload + 4 length
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int64(-5).ToString(), "-5");
  EXPECT_EQ(Value::String("it's").ToString(), "'it''s'");
  EXPECT_EQ(Value::Double(2.0).ToString(), "2.0");
}

TEST(ValueTest, ToXmlText) {
  EXPECT_EQ(Value::Null().ToXmlText(), "");
  EXPECT_EQ(Value::Int64(7).ToXmlText(), "7");
  EXPECT_EQ(Value::String("a<b").ToXmlText(), "a<b");  // escaping is the writer's job
}

TEST(ValueTest, AppendXmlTextIsByteIdenticalToToXmlText) {
  // The tagger renders wire payloads with the append helpers; Value renders
  // with ToXmlText. Both must produce the same bytes at every edge.
  const int64_t kBig = int64_t{1} << 53;
  for (int64_t v : {std::numeric_limits<int64_t>::min(), int64_t{-1},
                    int64_t{0}, kBig - 1, kBig, kBig + 1,
                    std::numeric_limits<int64_t>::max()}) {
    std::string out = "<";
    AppendInt64XmlText(v, &out);
    EXPECT_EQ(out, "<" + Value::Int64(v).ToXmlText());
    EXPECT_EQ(out.substr(1), std::to_string(v));
  }
  for (double d : {0.0, -0.0, 1.5, -2.0, 9007199254740991.0,
                   9007199254740992.0, 9007199254740993.0, 1e15, -1e15,
                   1e300, -1e300, 1e-300, 4.9e-324,
                   std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::infinity()}) {
    std::string out = "<";
    AppendDoubleXmlText(d, &out);
    EXPECT_EQ(out, "<" + Value::Double(d).ToXmlText()) << d;
  }
  // Pinned renderings: integral doubles below 1e15 keep ".0"; -0.0 prints
  // as zero; everything else is %.6g.
  EXPECT_EQ(Value::Double(-0.0).ToXmlText(), "0.0");
  EXPECT_EQ(Value::Double(-2.0).ToXmlText(), "-2.0");
  EXPECT_EQ(Value::Double(9007199254740993.0).ToXmlText(), "9.0072e+15");
  EXPECT_EQ(Value::Double(1e300).ToXmlText(), "1e+300");
  EXPECT_EQ(Value::Double(1e-300).ToXmlText(), "1e-300");
  EXPECT_EQ(Value::Int64(std::numeric_limits<int64_t>::min()).ToXmlText(),
            "-9223372036854775808");
}

TEST(ValueTest, CompareIsTotalOrderProperty) {
  // Antisymmetry and transitivity over a random sample.
  Random rng(13);
  std::vector<Value> values;
  for (int i = 0; i < 30; ++i) {
    switch (rng.Uniform(0, 3)) {
      case 0:
        values.push_back(Value::Null());
        break;
      case 1:
        values.push_back(Value::Int64(rng.Uniform(-5, 5)));
        break;
      case 2:
        values.push_back(Value::Double(static_cast<double>(rng.Uniform(-5, 5)) / 2));
        break;
      default:
        values.push_back(Value::String(rng.NextString(2)));
    }
  }
  for (const auto& a : values) {
    for (const auto& b : values) {
      EXPECT_EQ(a.Compare(b), -b.Compare(a));
      for (const auto& c : values) {
        if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0);
        }
      }
    }
  }
}

TEST(TupleTest, ConcatJoinsValues) {
  Tuple a{Value::Int64(1), Value::String("x")};
  Tuple b{Value::Null()};
  Tuple c = Tuple::Concat(a, b);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0].AsInt64(), 1);
  EXPECT_EQ(c[1].AsString(), "x");
  EXPECT_TRUE(c[2].is_null());
}

TEST(TupleTest, CompareLexicographic) {
  Tuple a{Value::Int64(1), Value::Int64(2)};
  Tuple b{Value::Int64(1), Value::Int64(3)};
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_EQ(a.Compare(a), 0);
  Tuple shorter{Value::Int64(1)};
  EXPECT_LT(shorter.Compare(a), 0);  // prefix sorts first
}

TEST(TupleTest, ByteSizeSumsValues) {
  Tuple t{Value::Int64(1), Value::String("abcd"), Value::Null()};
  EXPECT_EQ(t.ByteSize(), 8u + 8u + 1u);
}

TEST(TupleTest, ToStringRendering) {
  Tuple t{Value::Int64(1), Value::String("a")};
  EXPECT_EQ(t.ToString(), "(1, 'a')");
}

}  // namespace
}  // namespace silkroute
