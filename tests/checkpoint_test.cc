#include "storage/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "storage/codec.h"
#include "storage/sharded_table.h"
#include "testbed/testbed.h"
#include "workload/data_gen.h"
#include "workload/queries.h"

namespace dkb::testbed {
namespace {

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::set<std::string> AnswerSet(const QueryResult& result) {
  std::set<std::string> out;
  for (const Tuple& row : result.rows) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    out.insert(key);
  }
  return out;
}

/// Builds a testbed holding rules, bulk-loaded facts, and committed stored
/// rules — every kind of state a checkpoint must carry.
std::unique_ptr<Testbed> MakePopulatedTestbed(size_t shards) {
  auto tb = Testbed::Create(TestbedOptions{}.WithShards(shards));
  EXPECT_TRUE(tb.ok()) << tb.status().ToString();
  workload::EdgeSet edges = workload::MakeFullBinaryTrees(1, 5);
  Status s = (*tb)->Consult(workload::AncestorRules());
  EXPECT_TRUE(s.ok()) << s.ToString();
  s = (*tb)->DefineBase("parent", {DataType::kVarchar, DataType::kVarchar});
  EXPECT_TRUE(s.ok()) << s.ToString();
  s = (*tb)->AddFacts("parent", edges.ToTuples());
  EXPECT_TRUE(s.ok()) << s.ToString();
  auto stats = (*tb)->UpdateStoredDkb();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return std::move(*tb);
}

class CheckpointRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(CheckpointRoundTrip, SaveLoadPreservesAnswers) {
  const size_t shards = GetParam();
  auto tb = MakePopulatedTestbed(shards);
  const std::string root = workload::TreeNodeName(0, 0);
  auto before = tb->Query("ancestor('" + root + "', W)");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->result.rows.size(), 30u);  // depth-5 tree minus the root

  std::string path =
      TempPath("ckpt_rt_" + std::to_string(shards) + ".ckpt");
  ASSERT_TRUE(tb->SaveSession(path).ok());

  auto loaded =
      Testbed::LoadSession(path, TestbedOptions{}.WithShards(shards));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto after = (*loaded)->Query("ancestor('" + root + "', W)");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(AnswerSet(before->result), AnswerSet(after->result));

  // Workspace rules survived too.
  EXPECT_EQ(tb->ListRuleTexts(), (*loaded)->ListRuleTexts());

  // Writes keep working after a restore (the loaded testbed is live, not a
  // read-only image).
  std::string leaf = workload::TreeNodeName(0, 30);
  ASSERT_TRUE(
      (*loaded)->AddFacts("parent", {{Value(leaf), Value("extra")}}).ok());
  auto grown = (*loaded)->Query("ancestor('" + root + "', W)");
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(grown->result.rows.size(), 31u);
}

INSTANTIATE_TEST_SUITE_P(Shards, CheckpointRoundTrip,
                         ::testing::Values(1, 2, 8));

TEST(CheckpointTest, ImagesOfIdenticalStatesAreByteIdentical) {
  auto a = MakePopulatedTestbed(2);
  auto b = MakePopulatedTestbed(2);
  std::string pa = TempPath("ckpt_ident_a.ckpt");
  std::string pb = TempPath("ckpt_ident_b.ckpt");
  ASSERT_TRUE(a->SaveSession(pa).ok());
  ASSERT_TRUE(b->SaveSession(pb).ok());
  std::ifstream fa(pa, std::ios::binary), fb(pb, std::ios::binary);
  std::string ba((std::istreambuf_iterator<char>(fa)),
                 std::istreambuf_iterator<char>());
  std::string bb((std::istreambuf_iterator<char>(fb)),
                 std::istreambuf_iterator<char>());
  ASSERT_FALSE(ba.empty());
  EXPECT_EQ(ba, bb);
}

TEST(CheckpointTest, PeekReadsHeaderWithoutLoading) {
  auto tb = MakePopulatedTestbed(1);
  std::string path = TempPath("ckpt_peek.ckpt");
  ASSERT_TRUE(tb->SaveSession(path).ok());
  auto info = PeekCheckpoint(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->epoch, tb->epoch());
  EXPECT_EQ(info->last_lsn, 0u);  // no WAL configured on this testbed
}

TEST(CheckpointTest, LoadIntoNonEmptyTestbedIsFailedPrecondition) {
  auto source = MakePopulatedTestbed(1);
  std::string path = TempPath("ckpt_nonempty.ckpt");
  ASSERT_TRUE(source->SaveSession(path).ok());

  // A freshly created testbed is NOT an empty load target: Create already
  // initialized the stored-DKB relations.
  auto target = Testbed::Create();
  ASSERT_TRUE(target.ok());
  Status s = (*target)->LoadCheckpoint(path);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition) << s.ToString();
}

TEST(CheckpointTest, FailedPreconditionWireValueIsPinned) {
  // kFailedPrecondition is on the wire (u16 in Error frames) and in the WAL
  // recovery contract; its value is format-stable.
  EXPECT_EQ(static_cast<uint16_t>(ErrorCode::kFailedPrecondition), 10);
  EXPECT_EQ(ErrorCodeFromWire(10), ErrorCode::kFailedPrecondition);
}

TEST(CheckpointTest, CheckpointWithoutWalDirIsFailedPrecondition) {
  auto tb = Testbed::Create();
  ASSERT_TRUE(tb.ok());
  Status s = (*tb)->Checkpoint();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition) << s.ToString();
}

TEST(CheckpointTest, CorruptFileIsRejected) {
  auto tb = MakePopulatedTestbed(1);
  std::string path = TempPath("ckpt_corrupt.ckpt");
  ASSERT_TRUE(tb->SaveSession(path).ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(32);  // well past the magic, inside the payload
    char c = 0x7f;
    f.write(&c, 1);
  }
  auto info = PeekCheckpoint(path);
  EXPECT_FALSE(info.ok());
}

/// Writes a checkpoint file around `payload` with a valid CRC trailer, so
/// only the decoder stands between the payload and the process.
std::string CraftCheckpoint(const std::string& name,
                            const std::string& payload) {
  codec::Writer trailer;
  trailer.U32(codec::Crc32(payload));
  std::string path = TempPath(name);
  std::ofstream out(path, std::ios::binary);
  out << "DKBCKPT1" << payload << trailer.str();
  return path;
}

/// The header of a crafted payload: lsn, epoch, no rules.
codec::Writer CraftedHeader() {
  codec::Writer w;
  w.U64(1);
  w.U64(1);
  w.U32(0);  // nrules
  return w;
}

/// Runs ReadCheckpoint on `path` with a factory that records the shard
/// counts it is asked for; returns the status.
Status ReadCrafted(const std::string& path, std::vector<size_t>* asked) {
  std::vector<std::unique_ptr<ScanSource>> tables;
  TableFactory factory = [&](const std::string& name, const Schema& schema,
                             size_t shard_count,
                             size_t) -> Result<ScanSource*> {
    asked->push_back(shard_count);
    if (shard_count > 64) return Status::Internal("factory refused");
    tables.push_back(MakeSource(name, schema, shard_count));
    return tables.back().get();
  };
  return ReadCheckpoint(path, factory, nullptr).status();
}

// A dictionary count the file cannot hold (36 bytes in all).
TEST(CheckpointTest, CraftedDictCountIsInvalidArgument) {
  codec::Writer w = CraftedHeader();
  w.U32(0xFFFFFFF0u);  // ndict
  const std::string path = CraftCheckpoint("crafted_ndict.ckpt", w.str());
  std::vector<size_t> asked;
  Status s = ReadCrafted(path, &asked);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

/// One table "t" with one INT column, `shard_count` shards and no indexes.
codec::Writer CraftedTable(uint32_t shard_count) {
  codec::Writer w = CraftedHeader();
  w.U32(0);  // ndict
  w.U32(1);  // ntables
  w.Str("t");
  w.U32(shard_count);
  w.U32(0);  // partition column
  w.Cols(Schema({{"c0", DataType::kInteger}}));
  w.U16(0);  // nindexes
  return w;
}

// A shard count the file cannot hold never reaches the table factory.
TEST(CheckpointTest, CraftedShardCountIsInvalidArgument) {
  codec::Writer w = CraftedTable(0xFFFFFFFFu);
  const std::string path = CraftCheckpoint("crafted_shards.ckpt", w.str());
  std::vector<size_t> asked;
  Status s = ReadCrafted(path, &asked);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_TRUE(asked.empty());
}

// A row count the file cannot hold.
TEST(CheckpointTest, CraftedRowCountIsInvalidArgument) {
  codec::Writer w = CraftedTable(1);
  w.U64(uint64_t{1} << 60);  // nrows
  const std::string path = CraftCheckpoint("crafted_nrows.ckpt", w.str());
  std::vector<size_t> asked;
  Status s = ReadCrafted(path, &asked);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_EQ(asked, std::vector<size_t>{1});
}

}  // namespace
}  // namespace dkb::testbed
