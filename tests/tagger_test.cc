#include "silkroute/tagger.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <sstream>

#include "engine/executor.h"
#include "silkroute/partition.h"
#include "silkroute/queries.h"
#include "tests/test_util.h"
#include "xml/reader.h"

namespace silkroute::core {
namespace {

using testutil::MakeTinyTpch;
using testutil::MustBuildTree;

class TaggerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = MakeTinyTpch().release();
    tree_ = new ViewTree(MustBuildTree(Query1Rxl(), db_->catalog()));
  }
  static void TearDownTestSuite() {
    delete tree_;
    delete db_;
    tree_ = nullptr;
    db_ = nullptr;
  }

  /// Runs the full generate/execute/tag pipeline for one plan; returns the
  /// XML and exposes the tagger stats through `stats`.
  std::string RunPlan(uint64_t mask, SqlGenStyle style, bool reduce,
                      TaggerStats* stats) {
    auto plan = Partition::FromMask(*tree_, mask);
    EXPECT_TRUE(plan.ok());
    SqlGenerator gen(tree_, style, reduce);
    auto specs = gen.GeneratePlan(*plan);
    EXPECT_TRUE(specs.ok()) << specs.status();

    std::vector<std::unique_ptr<engine::TupleStream>> streams;
    for (const auto& spec : *specs) {
      engine::QueryExecutor exec(db_);
      auto rel = exec.ExecuteSql(spec.sql);
      EXPECT_TRUE(rel.ok()) << spec.sql << "\n" << rel.status();
      streams.push_back(
          std::make_unique<engine::TupleStream>(std::move(rel).value()));
    }
    std::ostringstream out;
    xml::XmlWriter writer(&out);
    Tagger tagger(tree_, &writer, Tagger::Options{"suppliers"});
    std::vector<Tagger::StreamInput> inputs;
    for (size_t i = 0; i < specs->size(); ++i) {
      inputs.push_back({&(*specs)[i], streams[i].get()});
    }
    Status s = tagger.Run(std::move(inputs));
    EXPECT_TRUE(s.ok()) << s;
    EXPECT_TRUE(writer.Finish().ok());
    if (stats != nullptr) *stats = tagger.stats();
    return out.str();
  }

  static Database* db_;
  static ViewTree* tree_;
};

Database* TaggerTest::db_ = nullptr;
ViewTree* TaggerTest::tree_ = nullptr;

TEST_F(TaggerTest, EmitsWellFormedXml) {
  TaggerStats stats;
  std::string xml = RunPlan(0, SqlGenStyle::kOuterJoin, false, &stats);
  auto doc = xml::ParseXml(xml);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->name, "suppliers");
  EXPECT_GT((*doc)->NumChildren(), 0u);
}

TEST_F(TaggerTest, NoForcedAncestorOpens) {
  for (uint64_t mask : {uint64_t{0}, uint64_t{511}, uint64_t{0x1E8}}) {
    TaggerStats stats;
    RunPlan(mask, SqlGenStyle::kOuterJoin, true, &stats);
    EXPECT_EQ(stats.forced_ancestor_opens, 0u) << mask;
  }
}

TEST_F(TaggerTest, BufferedInstancesBoundedByViewTreeSize) {
  // The constant-memory property (paper Sec. 3.3): buffering depends only
  // on the view tree (one tuple per stream plus one captured instance per
  // node), never on the database size.
  for (uint64_t mask : {uint64_t{0}, uint64_t{511}, uint64_t{0x1E8}}) {
    TaggerStats stats;
    RunPlan(mask, SqlGenStyle::kOuterJoin, false, &stats);
    EXPECT_GE(stats.peak_buffered_tuples, 1u) << mask;
    EXPECT_LE(stats.peak_buffered_tuples, tree_->num_nodes()) << mask;
  }
}

TEST_F(TaggerTest, MaxDepthMatchesViewTree) {
  TaggerStats stats;
  RunPlan(511, SqlGenStyle::kOuterJoin, true, &stats);
  // suppliers wrapper is not on the tagger's stack; depth = tree depth.
  EXPECT_EQ(stats.max_open_depth, 4u);
}

TEST_F(TaggerTest, OuterJoinPlansSkipRepeatedParents) {
  TaggerStats stats;
  RunPlan(511, SqlGenStyle::kOuterJoin, false, &stats);
  EXPECT_GT(stats.duplicates_skipped, 0u);
}

TEST_F(TaggerTest, InstanceCountIndependentOfPlan) {
  TaggerStats a, b, c;
  RunPlan(0, SqlGenStyle::kOuterJoin, false, &a);
  RunPlan(511, SqlGenStyle::kOuterUnion, true, &b);
  RunPlan(0x35, SqlGenStyle::kOuterJoin, true, &c);
  EXPECT_EQ(a.instances_emitted, b.instances_emitted);
  EXPECT_EQ(a.instances_emitted, c.instances_emitted);
}

TEST_F(TaggerTest, SupplierContentsCompleteAndOrdered) {
  std::string xml = RunPlan(0x1E8, SqlGenStyle::kOuterJoin, true, nullptr);
  auto doc = xml::ParseXml(xml);
  ASSERT_TRUE(doc.ok());
  auto suppliers = (*doc)->Children("supplier");
  auto table = db_->GetTable("Supplier");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(suppliers.size(), (*table)->num_rows());
  for (const auto* s : suppliers) {
    ASSERT_GE(s->NumChildren(), 3u);
    EXPECT_EQ(s->children[0]->name, "name");
    EXPECT_EQ(s->children[1]->name, "nation");
    EXPECT_EQ(s->children[2]->name, "region");
    for (size_t i = 3; i < s->NumChildren(); ++i) {
      EXPECT_EQ(s->children[i]->name, "part");
    }
    EXPECT_FALSE(s->children[0]->text.empty());
  }
}

TEST_F(TaggerTest, SuppliersSortedByKey) {
  // The merged document lists suppliers in key order (the global sort key
  // starts with v1_1 = suppkey). Supplier names embed the key.
  std::string xml = RunPlan(0, SqlGenStyle::kOuterJoin, false, nullptr);
  auto doc = xml::ParseXml(xml);
  ASSERT_TRUE(doc.ok());
  auto suppliers = (*doc)->Children("supplier");
  std::string prev;
  for (const auto* s : suppliers) {
    std::string name = s->FirstChild("name")->text;
    EXPECT_LT(prev, name);
    prev = name;
  }
}

TEST_F(TaggerTest, RowsConsumedMatchesStreamSizes) {
  TaggerStats stats;
  RunPlan(0, SqlGenStyle::kOuterJoin, false, &stats);
  EXPECT_GT(stats.rows_consumed, 0u);
}

TEST_F(TaggerTest, StatsPinnedForQuery1Plans) {
  // Recorded from the Value-key tagger before the packed-key rewrite: the
  // byte-key merge must consume, emit and deduplicate exactly as it did.
  struct Pin {
    uint64_t mask;
    SqlGenStyle style;
    bool reduce;
    size_t instances, duplicates, rows;
  };
  const Pin pins[] = {
      {0x1FF, SqlGenStyle::kOuterJoin, false, 4980, 9660, 3695},   // unified
      {0x1FF, SqlGenStyle::kOuterJoin, true, 4980, 7118, 1220},
      {0, SqlGenStyle::kOuterJoin, false, 4980, 0, 4980},  // fully partitioned
      {0x1E8, SqlGenStyle::kOuterJoin, false, 4980, 9519, 3720},
      {0x1E8, SqlGenStyle::kOuterJoin, true, 4980, 2349, 1330},
      {0x1FF, SqlGenStyle::kOuterUnion, false, 4980, 0, 4980},
      {0x1FF, SqlGenStyle::kOuterUnion, true, 4980, 0, 1285},
  };
  for (const Pin& pin : pins) {
    TaggerStats stats;
    RunPlan(pin.mask, pin.style, pin.reduce, &stats);
    SCOPED_TRACE(testing::Message() << std::hex << pin.mask << " style "
                                    << static_cast<int>(pin.style)
                                    << " reduce " << pin.reduce);
    EXPECT_EQ(stats.instances_emitted, pin.instances);
    EXPECT_EQ(stats.duplicates_skipped, pin.duplicates);
    EXPECT_EQ(stats.rows_consumed, pin.rows);
    EXPECT_EQ(stats.forced_ancestor_opens, 0u);
  }
}

TEST_F(TaggerTest, WithoutDocumentElementEmitsForest) {
  // A single-supplier view without the wrapper: root element instances
  // follow each other; the reader then rejects it as multi-root, which is
  // exactly the forest semantics — so wrap a view whose root is unique.
  auto tree = MustBuildTree(
      "from Region $r where $r.regionkey = 0 construct "
      "<regions><region>$r.name</region></regions>",
      db_->catalog());
  SqlGenerator gen(&tree, SqlGenStyle::kOuterJoin, false);
  auto specs = gen.GeneratePlan(Partition::Unified(tree));
  ASSERT_TRUE(specs.ok());
  engine::QueryExecutor exec(db_);
  auto rel = exec.ExecuteSql((*specs)[0].sql);
  ASSERT_TRUE(rel.ok());
  engine::TupleStream stream(std::move(rel).value());
  std::ostringstream out;
  xml::XmlWriter writer(&out);
  Tagger tagger(&tree, &writer, Tagger::Options{});
  ASSERT_TRUE(tagger.Run({{&(*specs)[0], &stream}}).ok());
  ASSERT_TRUE(writer.Finish().ok());
  auto doc = xml::ParseXml(out.str());
  ASSERT_TRUE(doc.ok()) << out.str();
  EXPECT_EQ((*doc)->name, "regions");
  EXPECT_EQ((*doc)->FirstChild("region")->text, "AFRICA");
}

}  // namespace
}  // namespace silkroute::core

// --- Hand-built streams -----------------------------------------------------
// Edge cases of the byte-key merge, fed through TupleStream(Relation) with
// rows written by hand rather than produced by the engine. Each stream's
// columns are those of its generated SQL; cells not named by a row are NULL.

namespace silkroute::core {
namespace {

using Cells = std::map<std::string, Value>;

class HandBuiltStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSchema p("P", {{"k", DataType::kInt64, false},
                        {"name", DataType::kString, true}});
    ASSERT_TRUE(p.SetPrimaryKey({"k"}).ok());
    TableSchema c("C", {{"ck", DataType::kInt64, false},
                        {"pk", DataType::kInt64, false},
                        {"v", DataType::kString, true}});
    ASSERT_TRUE(c.SetPrimaryKey({"ck"}).ok());
    ASSERT_TRUE(db_.CreateTable(std::move(p)).ok());
    ASSERT_TRUE(db_.CreateTable(std::move(c)).ok());
  }

  /// Tags the fully partitioned plan of `rxl` over one hand-built stream
  /// per component (in document order) and returns the XML without its
  /// declaration.
  std::string Tag(const char* rxl, const std::vector<std::vector<Cells>>& rows,
                  TaggerStats* stats = nullptr) {
    ViewTree tree = MustBuildTree(rxl, db_.catalog());
    SqlGenerator gen(&tree, SqlGenStyle::kOuterJoin, false);
    auto specs = gen.GeneratePlan(*Partition::FromMask(tree, 0));
    EXPECT_TRUE(specs.ok()) << specs.status();
    EXPECT_EQ(specs->size(), rows.size());
    std::vector<std::unique_ptr<engine::TupleStream>> streams;
    std::vector<Tagger::StreamInput> inputs;
    for (size_t i = 0; i < specs->size() && i < rows.size(); ++i) {
      // The generated SQL over the empty tables yields the stream schema.
      engine::QueryExecutor exec(&db_);
      auto relation = exec.ExecuteSql((*specs)[i].sql);
      EXPECT_TRUE(relation.ok()) << relation.status();
      for (const Cells& cells : rows[i]) {
        Tuple row;
        for (size_t c = 0; c < relation->schema.size(); ++c) {
          auto it = cells.find(relation->schema.column(c).name);
          row.Append(it == cells.end() ? Value::Null() : it->second);
        }
        relation->rows.push_back(std::move(row));
      }
      streams.push_back(
          std::make_unique<engine::TupleStream>(std::move(relation).value()));
      inputs.push_back({&(*specs)[i], streams.back().get()});
    }
    std::ostringstream out;
    xml::XmlWriter::Options options;
    options.declaration = false;
    xml::XmlWriter writer(&out, options);
    Tagger tagger(&tree, &writer, Tagger::Options{"doc"});
    Status s = tagger.Run(std::move(inputs));
    EXPECT_TRUE(s.ok()) << s;
    EXPECT_TRUE(writer.Finish().ok());
    EXPECT_EQ(tagger.stats().forced_ancestor_opens, 0u);
    if (stats != nullptr) *stats = tagger.stats();
    return out.str();
  }

  static Cells Parent(Value key, const char* name) {
    return {{"L1", Value::Int64(1)},
            {"v1_1", std::move(key)},
            {"v1_2", Value::String(name)}};
  }
  static Cells Child(Value parent_key, int64_t key, const char* v) {
    return {{"L1", Value::Int64(1)},
            {"L2", Value::Int64(1)},
            {"v1_1", std::move(parent_key)},
            {"v2_1", Value::Int64(key)},
            {"v2_2", Value::String(v)}};
  }

  Database db_;
};

constexpr const char* kParentChildView =
    "from P $p construct <p>$p.name"
    "{ from C $c where $c.pk = $p.k construct <c>$c.v</c> }</p>";

TEST_F(HandBuiltStreamTest, StringKeysSharingAPrefixOrHoldingANulStayApart) {
  // Codec order: "ab" < "ab\0c" < "abc" (the embedded NUL is escaped, the
  // terminator sorts below every continuation).
  const std::string nul("ab\0c", 4);
  TaggerStats stats;
  std::string xml = Tag(
      kParentChildView,
      {{Parent(Value::String("ab"), "x"), Parent(Value::String(nul), "y"),
        Parent(Value::String("abc"), "z")},
       {Child(Value::String("ab"), 1, "1"), Child(Value::String(nul), 2, "2"),
        Child(Value::String(nul), 3, "3"),
        Child(Value::String("abc"), 4, "4")}},
      &stats);
  EXPECT_EQ(xml,
            "<doc><p>x<c>1</c></p><p>y<c>2</c><c>3</c></p>"
            "<p>z<c>4</c></p></doc>");
  EXPECT_EQ(stats.instances_emitted, 7u);
  EXPECT_EQ(stats.duplicates_skipped, 0u);
}

TEST_F(HandBuiltStreamTest, NullIdentityValuesSortFirstAndMatchEachOther) {
  TaggerStats stats;
  std::string xml =
      Tag(kParentChildView,
          {{Parent(Value::Null(), "n"), Parent(Value::Int64(1), "one")},
           {Child(Value::Null(), 5, "5"), Child(Value::Null(), 6, "6"),
            Child(Value::Int64(1), 7, "7")}},
          &stats);
  EXPECT_EQ(xml,
            "<doc><p>n<c>5</c><c>6</c></p><p>one<c>7</c></p></doc>");
  EXPECT_EQ(stats.instances_emitted, 5u);
}

TEST_F(HandBuiltStreamTest, Int64AndEqualDoubleAcrossStreamsAreOneInstance) {
  // The parent stream carries int64 3, the child stream double 3.0 at the
  // same identity position: both encode to one segment, so the child nests
  // under the open parent instead of forcing a second <p>.
  TaggerStats stats;
  std::string xml = Tag(kParentChildView,
                        {{Parent(Value::Int64(3), "three")},
                         {Child(Value::Double(3.0), 1, "a"),
                          Child(Value::Double(3.0), 2, "b")}},
                        &stats);
  EXPECT_EQ(xml, "<doc><p>three<c>a</c><c>b</c></p></doc>");
  EXPECT_EQ(stats.instances_emitted, 3u);
}

TEST_F(HandBuiltStreamTest, NegativeKeysMergeInNumericOrder) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  TaggerStats stats;
  std::string xml = Tag(
      kParentChildView,
      {{Parent(Value::Int64(kMin), "min"), Parent(Value::Int64(-5), "m5"),
        Parent(Value::Int64(-1), "m1"), Parent(Value::Int64(0), "z"),
        Parent(Value::Int64(2), "p2")},
       {Child(Value::Int64(kMin), -9, "a"), Child(Value::Int64(-5), -3, "b"),
        Child(Value::Int64(-5), 4, "c"), Child(Value::Int64(2), -1, "d")}},
      &stats);
  EXPECT_EQ(xml,
            "<doc><p>min<c>a</c></p><p>m5<c>b</c><c>c</c></p><p>m1</p>"
            "<p>z</p><p>p2<c>d</c></p></doc>");
  EXPECT_EQ(stats.instances_emitted, 9u);
}

TEST_F(HandBuiltStreamTest, FusedNodeFedByTwoRulesIsOneElement) {
  // <c> is fused from two templates (shared Skolem function I): each
  // rule's row appends its own literal text and value to the one element.
  constexpr const char* kFusedView =
      "from P $p construct <p ID=R($p.k)>"
      "{ from C $c where $c.pk = $p.k, $c.ck = 0 "
      "construct <c ID=I($p.k)>a$c.v</c> }"
      "{ from C $d where $d.pk = $p.k, $d.ck = 1 "
      "construct <c ID=I($p.k)>b$d.v</c> }</p>";
  auto rule = [](int64_t parent, int rule_index, const char* v) {
    Cells cells = {{"L1", Value::Int64(1)},
                   {"L2", Value::Int64(1)},
                   {"v1_1", Value::Int64(parent)}};
    cells[rule_index == 0 ? "v2_1" : "v2_2"] = Value::String(v);
    return cells;
  };
  const Cells p1 = {{"L1", Value::Int64(1)}, {"v1_1", Value::Int64(1)}};
  const Cells p2 = {{"L1", Value::Int64(1)}, {"v1_1", Value::Int64(2)}};
  TaggerStats stats;
  std::string xml =
      Tag(kFusedView,
          {{p1, p2}, {rule(1, 0, "x"), rule(1, 1, "y"), rule(2, 1, "z")}},
          &stats);
  EXPECT_EQ(xml, "<doc><p><c>axby</c></p><p><c>bz</c></p></doc>");
  EXPECT_EQ(stats.instances_emitted, 4u);
  EXPECT_EQ(stats.duplicates_skipped, 0u);
}

}  // namespace
}  // namespace silkroute::core
