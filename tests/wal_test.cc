#include "storage/wal.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "storage/codec.h"

namespace dkb {
namespace {

struct Rec {
  uint64_t lsn;
  WalRecordKind kind;
  std::string payload;
};

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::vector<Rec> ReplayAll(const std::string& path, uint64_t after_lsn = 0) {
  std::vector<Rec> out;
  Status s = Wal::Replay(
      path, after_lsn,
      [&](uint64_t lsn, WalRecordKind kind, std::string_view payload) {
        out.push_back({lsn, kind, std::string(payload)});
        return Status::OK();
      });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

int64_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<int64_t>(in.tellg()) : -1;
}

/// Bytes a record takes in the log: the 17-byte frame header (u32 len, u32
/// crc, u64 lsn, u8 kind) plus the payload. The file runs on past the last
/// record (it is preallocated), so tests find records by their frames, not
/// by the file's size.
int64_t FrameBytes(std::string_view payload) {
  return 17 + static_cast<int64_t>(payload.size());
}

/// The header of a kConsult frame that promises `len` payload bytes under
/// `lsn`, with a CRC that matches no payload: the start of a torn write.
std::string TornHeader(uint32_t len, uint64_t lsn) {
  codec::Writer w;
  w.U32(len);
  w.U32(0x04030201);
  w.U64(lsn);
  w.U8(static_cast<uint8_t>(WalRecordKind::kConsult));
  return w.Take();
}

/// Peak resident memory of this process so far, in KiB.
long PeakRssKiB() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

std::string ReadBytes(const std::string& path, int64_t offset, size_t n) {
  std::ifstream in(path, std::ios::binary);
  in.seekg(offset);
  std::string out(n, '\0');
  in.read(out.data(), static_cast<std::streamsize>(n));
  out.resize(static_cast<size_t>(in.gcount()));
  return out;
}

void WriteBytes(const std::string& path, int64_t offset,
                const std::string& bytes) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(offset);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Appends `payloads` as kConsult records, waits until they are durable and
/// closes the log; returns their LSNs.
std::vector<uint64_t> WriteLog(const std::string& path,
                               const std::vector<std::string>& payloads) {
  std::vector<uint64_t> lsns;
  auto wal = Wal::Open(path, Wal::Options{});
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  if (!wal.ok()) return lsns;
  for (const std::string& payload : payloads) {
    auto lsn = (*wal)->Append(WalRecordKind::kConsult, payload);
    EXPECT_TRUE(lsn.ok()) << lsn.status().ToString();
    if (!lsn.ok()) return lsns;
    lsns.push_back(*lsn);
  }
  if (!lsns.empty()) {
    EXPECT_TRUE((*wal)->WaitDurable(lsns.back()).ok());
  }
  return lsns;
}

TEST(WalTest, AppendReplayRoundTrip) {
  std::string path = TempPath("wal_roundtrip.wal");
  auto wal = Wal::Open(path, Wal::Options{});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  auto l1 = (*wal)->Append(WalRecordKind::kConsult, "p(a).");
  auto l2 = (*wal)->Append(WalRecordKind::kAddRule, "q(X) :- p(X).");
  auto l3 = (*wal)->Append(WalRecordKind::kUpdateStored, "");
  ASSERT_TRUE(l1.ok() && l2.ok() && l3.ok());
  EXPECT_LT(*l1, *l2);
  EXPECT_LT(*l2, *l3);
  ASSERT_TRUE((*wal)->WaitDurable(*l3).ok());
  EXPECT_EQ((*wal)->appends(), 3);
  wal->reset();  // close before replaying

  std::vector<Rec> recs = ReplayAll(path);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].lsn, *l1);
  EXPECT_EQ(recs[0].kind, WalRecordKind::kConsult);
  EXPECT_EQ(recs[0].payload, "p(a).");
  EXPECT_EQ(recs[1].kind, WalRecordKind::kAddRule);
  EXPECT_EQ(recs[1].payload, "q(X) :- p(X).");
  EXPECT_EQ(recs[2].kind, WalRecordKind::kUpdateStored);
  EXPECT_TRUE(recs[2].payload.empty());
}

TEST(WalTest, ReplaySkipsThroughAfterLsn) {
  std::string path = TempPath("wal_afterlsn.wal");
  auto wal = Wal::Open(path, Wal::Options{});
  ASSERT_TRUE(wal.ok());
  uint64_t cut = 0;
  for (int i = 0; i < 5; ++i) {
    auto lsn = (*wal)->Append(WalRecordKind::kSql,
                              "insert " + std::to_string(i));
    ASSERT_TRUE(lsn.ok());
    if (i == 2) cut = *lsn;
    ASSERT_TRUE((*wal)->WaitDurable(*lsn).ok());
  }
  wal->reset();

  std::vector<Rec> recs = ReplayAll(path, cut);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].payload, "insert 3");
  EXPECT_EQ(recs[1].payload, "insert 4");
  for (const Rec& r : recs) EXPECT_GT(r.lsn, cut);
}

TEST(WalTest, TornTailIsTruncatedOnOpen) {
  const std::string one = "good record one";
  const std::string two = "good record two";
  const int64_t end = FrameBytes(one) + FrameBytes(two);
  // A crash mid-append: the last record's final 5 bytes never reached the
  // disk. In the preallocated layout they read as the zeros after it; in a
  // log that ends at its last record (the layout before preallocation) the
  // file ends 5 bytes into that record's payload.
  for (bool cut : {false, true}) {
    SCOPED_TRACE(cut ? "file cut mid-payload" : "payload ends in zeros");
    std::string path = TempPath("wal_torn.wal");
    ASSERT_EQ(WriteLog(path, {one, two}).size(), 2u);
    if (cut) {
      ASSERT_EQ(::truncate(path.c_str(), end - 5), 0);
    } else {
      WriteBytes(path, end - 5, std::string(5, '\0'));
    }

    auto reopened = Wal::Open(path, Wal::Options{});
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::vector<Rec> recs = ReplayAll(path);
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].payload, one);

    // The torn tail is physically gone: a fresh append lands after the
    // valid prefix and the file replays clean.
    auto l3 = (*reopened)->Append(WalRecordKind::kConsult, "after the tear");
    ASSERT_TRUE(l3.ok());
    ASSERT_TRUE((*reopened)->WaitDurable(*l3).ok());
    EXPECT_GT(*l3, recs[0].lsn);
    reopened->reset();
    recs = ReplayAll(path);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[1].payload, "after the tear");
  }
}

TEST(WalTest, CorruptRecordStopsReplayAtValidPrefix) {
  std::string path = TempPath("wal_corrupt.wal");
  ASSERT_EQ(WriteLog(path, {"first", "second"}).size(), 2u);
  // Flip a byte inside the second record's payload (its last byte) so its
  // CRC no longer matches.
  const int64_t last = FrameBytes("first") + FrameBytes("second") - 1;
  std::string byte = ReadBytes(path, last, 1);
  ASSERT_EQ(byte, "d");
  byte[0] ^= 0x5a;
  WriteBytes(path, last, byte);
  std::vector<Rec> recs = ReplayAll(path);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].payload, "first");
}

TEST(WalTest, TruncateKeepsLsnsAscending) {
  std::string path = TempPath("wal_truncate.wal");
  auto wal = Wal::Open(path, Wal::Options{});
  ASSERT_TRUE(wal.ok());
  auto l1 = (*wal)->Append(WalRecordKind::kConsult, "before checkpoint");
  ASSERT_TRUE(l1.ok());
  ASSERT_TRUE((*wal)->WaitDurable(*l1).ok());
  ASSERT_TRUE((*wal)->Truncate().ok());
  EXPECT_TRUE(ReplayAll(path).empty());
  ASSERT_TRUE((*wal)->Truncate().ok());  // an empty log is one step of zeros
  EXPECT_EQ(FileSize(path), Wal::kPreallocBytes);

  // LSNs are never reused: post-truncate appends sort after the
  // checkpoint's last_lsn.
  auto l2 = (*wal)->Append(WalRecordKind::kConsult, "after checkpoint");
  ASSERT_TRUE(l2.ok());
  EXPECT_GT(*l2, *l1);
  ASSERT_TRUE((*wal)->WaitDurable(*l2).ok());
  wal->reset();
  std::vector<Rec> recs = ReplayAll(path, *l1);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].payload, "after checkpoint");
}

// The mechanism of preallocation: appends that fit in the allocated zeros
// overwrite them, so no durable append changes the file's size.
TEST(WalTest, SmallAppendsLeaveTheFileSizeUnchanged) {
  for (bool group_commit : {false, true}) {
    SCOPED_TRACE(group_commit ? "group commit" : "direct commit");
    std::string path = TempPath("wal_prealloc.wal");
    auto wal = Wal::Open(
        path, Wal::Options{.fsync = true, .group_commit = group_commit});
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    const int64_t size = FileSize(path);
    EXPECT_EQ(size, Wal::kPreallocBytes);
    for (int i = 0; i < 100; ++i) {
      auto lsn = (*wal)->Append(WalRecordKind::kAddFacts,
                                "fact commit " + std::to_string(i));
      ASSERT_TRUE(lsn.ok());
      ASSERT_TRUE((*wal)->WaitDurable(*lsn).ok());
      ASSERT_EQ(FileSize(path), size) << "after append " << i;
    }
    wal->reset();
    EXPECT_EQ(FileSize(path), size);
    EXPECT_EQ(ReplayAll(path).size(), 100u);
  }
}

TEST(WalTest, RecordLargerThanTheStepExtendsTheFile) {
  std::string path = TempPath("wal_large.wal");
  const std::string small = "before the large record";
  std::string large(static_cast<size_t>(Wal::kPreallocBytes) + 1000, 'x');
  large.front() = '<';
  large.back() = '>';
  ASSERT_EQ(WriteLog(path, {small, large, "after it"}).size(), 3u);
  EXPECT_GE(FileSize(path), FrameBytes(small) + FrameBytes(large));
  std::vector<Rec> recs = ReplayAll(path);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].payload, small);
  EXPECT_EQ(recs[1].payload, large);
  EXPECT_EQ(recs[2].payload, "after it");
}

TEST(WalTest, TornFrameInTheZerosIsDroppedOnReopen) {
  // A crash mid-write: the next frame's header promises `len` payload bytes,
  // and only 40 of garbage landed. The garbage is longer than the frame
  // appended below, so any that survived would show after it. A length
  // that runs far past the end of the file ends the scan without being
  // read or allocated: a scan that allocated 64 MiB would show in the peak
  // RSS, and 0xFFFFFFF0 is near the largest length a header holds.
  for (uint32_t len : {uint32_t{200}, uint32_t{64} << 20,
                       uint32_t{0xFFFFFFF0}}) {
    SCOPED_TRACE(len);
    std::string path = TempPath("wal_torn_zeros.wal");
    std::vector<uint64_t> lsns = WriteLog(path, {"one", "two"});
    ASSERT_EQ(lsns.size(), 2u);
    const int64_t end = FrameBytes("one") + FrameBytes("two");
    ASSERT_EQ(ReadBytes(path, end, 64), std::string(64, '\0'));
    std::string torn = TornHeader(len, lsns[1] + 1);
    torn += std::string(40, char(0xab));
    WriteBytes(path, end, torn);

    const long peak_before = PeakRssKiB();
    std::vector<Rec> recs = ReplayAll(path);
    ASSERT_EQ(recs.size(), 2u);
    auto reopened = Wal::Open(path, Wal::Options{});
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ASSERT_LT(PeakRssKiB() - peak_before, 16 * 1024);
    EXPECT_EQ((*reopened)->last_lsn(), lsns[1]);
    EXPECT_EQ(ReadBytes(path, end, torn.size()),
              std::string(torn.size(), '\0'));
    auto l3 = (*reopened)->Append(WalRecordKind::kConsult, "three");
    ASSERT_TRUE(l3.ok());
    ASSERT_TRUE((*reopened)->WaitDurable(*l3).ok());
    reopened->reset();
    recs = ReplayAll(path);
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[2].lsn, *l3);
    EXPECT_EQ(recs[2].payload, "three");
    EXPECT_EQ(ReadBytes(path, end + FrameBytes("three"), torn.size()),
              std::string(torn.size(), '\0'));
  }
}

// A log in the layout before preallocation ends at its last record; it
// opens, takes an append after that record and replays.
TEST(WalTest, LogWithoutPreallocationOpensAndAppends) {
  std::string path = TempPath("wal_old_layout.wal");
  ASSERT_EQ(WriteLog(path, {"old one", "old two"}).size(), 2u);
  const int64_t end = FrameBytes("old one") + FrameBytes("old two");
  ASSERT_EQ(::truncate(path.c_str(), end), 0);

  auto wal = Wal::Open(path, Wal::Options{});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(FileSize(path), end + Wal::kPreallocBytes);
  EXPECT_EQ((*wal)->last_lsn(), 2u);
  auto lsn = (*wal)->Append(WalRecordKind::kConsult, "new three");
  ASSERT_TRUE(lsn.ok());
  ASSERT_TRUE((*wal)->WaitDurable(*lsn).ok());
  wal->reset();
  std::vector<Rec> recs = ReplayAll(path);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].payload, "old one");
  EXPECT_EQ(recs[1].payload, "old two");
  EXPECT_EQ(recs[2].payload, "new three");
}

TEST(WalTest, ReserveThroughRaisesTheCounter) {
  std::string path = TempPath("wal_reserve.wal");
  auto wal = Wal::Open(path, Wal::Options{});
  ASSERT_TRUE(wal.ok());
  (*wal)->ReserveThrough(100);
  EXPECT_EQ((*wal)->last_lsn(), 100u);
  auto lsn = (*wal)->Append(WalRecordKind::kConsult, "x");
  ASSERT_TRUE(lsn.ok());
  EXPECT_GT(*lsn, 100u);
  // Reserving backwards is a no-op.
  (*wal)->ReserveThrough(5);
  EXPECT_EQ((*wal)->last_lsn(), *lsn);
}

TEST(WalTest, GroupCommitCoalescesConcurrentWaiters) {
  std::string path = TempPath("wal_group.wal");
  auto wal = Wal::Open(path, Wal::Options{.fsync = true, .group_commit = true});
  ASSERT_TRUE(wal.ok());
  constexpr int kWriters = 8;
  constexpr int kReps = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kReps; ++i) {
        auto lsn = (*wal)->Append(
            WalRecordKind::kSql,
            "w" + std::to_string(t) + ":" + std::to_string(i));
        if (!lsn.ok() || !(*wal)->WaitDurable(*lsn).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ((*wal)->appends(), kWriters * kReps);
  // The whole point of group commit: far fewer fsyncs than commits.
  // (>= 1 because at least one flush must have happened; the upper bound
  // is loose since timing decides batch sizes.)
  EXPECT_GE((*wal)->fsyncs(), 1);
  EXPECT_LE((*wal)->fsyncs(), (*wal)->appends());
  wal->reset();
  EXPECT_EQ(ReplayAll(path).size(), static_cast<size_t>(kWriters * kReps));
}

TEST(WalTest, NoFsyncModeStillReplays) {
  std::string path = TempPath("wal_nofsync.wal");
  auto wal =
      Wal::Open(path, Wal::Options{.fsync = false, .group_commit = false});
  ASSERT_TRUE(wal.ok());
  auto lsn = (*wal)->Append(WalRecordKind::kConsult, "fast and loose");
  ASSERT_TRUE(lsn.ok());
  ASSERT_TRUE((*wal)->WaitDurable(*lsn).ok());
  EXPECT_EQ((*wal)->fsyncs(), 0);
  wal->reset();
  ASSERT_EQ(ReplayAll(path).size(), 1u);
}

// A trailing '/' names the same directory, so the directory synced is the
// one that holds it (here missing, so the error names it).
TEST(WalTest, SyncParentDirectoryIgnoresATrailingSlash) {
  const std::string parent = ::testing::TempDir() + "/wal_no_such_dir";
  Status st = SyncParentDirectory(parent + "/child/");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find(parent + ":"), std::string::npos)
      << st.ToString();
}

TEST(WalTest, MissingFileReplaysNothing) {
  std::string path = TempPath("wal_missing.wal");
  int calls = 0;
  Status s = Wal::Replay(path, 0,
                         [&](uint64_t, WalRecordKind, std::string_view) {
                           ++calls;
                           return Status::OK();
                         });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace dkb
