// Persistent block-store tests: backend contract, crash-consistent
// recovery (manifest truncation sweep, torn segment tails, corrupt
// payloads, a fork+SIGKILL writer), zero-copy mmap views, and the MiniCfs
// integration — mem/mmap read equivalence, hardened fetch/erase errors,
// and restart_node delta repair.
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cfs/minicfs.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "failure/repair.h"
#include "store/mem_store.h"
#include "store/mmap_store.h"

#if defined(__SANITIZE_THREAD__)
#define EAR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define EAR_TSAN 1
#endif
#endif

namespace ear::store {
namespace {

namespace fs = std::filesystem;
using datapath::BlockBuffer;

constexpr int64_t kManifestHeader = 8;
constexpr int64_t kRecordSize = 48;

// Deterministic per-block payload so any process can regenerate and verify
// the exact bytes a block must hold.
std::vector<uint8_t> pattern(BlockId block, size_t size) {
  std::vector<uint8_t> out(size);
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<uint8_t>((static_cast<uint64_t>(block) * 31 + i) &
                                  0xFF);
  }
  return out;
}

// Fresh scratch directory under the test temp root.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/ear-store-" + name;
  fs::remove_all(dir);
  return dir;
}

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name) : path_(scratch_dir(name)) {}
  ~ScratchDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void truncate_file(const std::string& path, int64_t size) {
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(size)), 0)
      << path << ": " << strerror(errno);
}

// ---- backend contract ----------------------------------------------------

template <typename MakeStore>
void exercise_contract(MakeStore make) {
  auto store = make();
  EXPECT_EQ(store->block_count(), 0u);
  EXPECT_EQ(store->bytes_stored(), 0);
  EXPECT_FALSE(store->get(7).has_value());
  EXPECT_FALSE(store->erase(7));

  store->put(7, BlockBuffer::take(pattern(7, 4096)));
  store->put(3, BlockBuffer::take(pattern(3, 4096)));
  EXPECT_TRUE(store->contains(7));
  EXPECT_EQ(store->block_count(), 2u);
  EXPECT_EQ(store->bytes_stored(), 2 * 4096);
  EXPECT_EQ(store->block_ids(), (std::vector<BlockId>{3, 7}));
  EXPECT_EQ(*store->get(7), pattern(7, 4096));

  // Overwrite replaces bytes and accounting.
  store->put(7, BlockBuffer::take(pattern(70, 2048)));
  EXPECT_EQ(*store->get(7), pattern(70, 2048));
  EXPECT_EQ(store->bytes_stored(), 4096 + 2048);

  const auto exported = store->export_blocks();
  EXPECT_EQ(exported.size(), 2u);
  EXPECT_EQ(exported.at(3), pattern(3, 4096));

  EXPECT_TRUE(store->erase(3));
  EXPECT_FALSE(store->contains(3));
  EXPECT_EQ(store->bytes_stored(), 2048);
  store->flush();
}

TEST(MemStore, Contract) {
  exercise_contract([] { return std::make_unique<MemBlockStore>(); });
}

TEST(MmapStore, Contract) {
  ScratchDir dir("contract");
  exercise_contract(
      [&] { return std::make_unique<MmapBlockStore>(dir.path()); });
}

// ---- mmap persistence and zero-copy views --------------------------------

TEST(MmapStore, PersistsAcrossReopen) {
  ScratchDir dir("reopen");
  {
    MmapBlockStore store(dir.path());
    for (BlockId b = 0; b < 8; ++b) {
      store.put(b, BlockBuffer::take(pattern(b, 4096)));
    }
    store.put(2, BlockBuffer::take(pattern(200, 4096)));  // overwrite
    store.erase(5);
  }
  MmapBlockStore reopened(dir.path());
  EXPECT_EQ(reopened.block_count(), 7u);
  EXPECT_EQ(reopened.open_report().records_replayed, 10);
  EXPECT_EQ(reopened.open_report().blocks_recovered, 7);
  EXPECT_EQ(reopened.open_report().torn_bytes_truncated, 0);
  EXPECT_EQ(reopened.open_report().corrupt_blocks_dropped, 0);
  EXPECT_FALSE(reopened.contains(5));
  EXPECT_EQ(*reopened.get(2), pattern(200, 4096));
  for (const BlockId b : {0, 1, 3, 4, 6, 7}) {
    EXPECT_EQ(*reopened.get(b), pattern(b, 4096)) << "block " << b;
  }
}

TEST(MmapStore, SegmentRolloverKeepsEveryBlockReadable) {
  ScratchDir dir("rollover");
  MmapStoreOptions options;
  options.segment_bytes = 16_KB;  // 4 blocks of 4 KB per segment
  MmapBlockStore store(dir.path(), options);
  for (BlockId b = 0; b < 10; ++b) {
    store.put(b, BlockBuffer::take(pattern(b, 4096)));
  }
  EXPECT_GE(store.segment_count(), 3);
  for (BlockId b = 0; b < 10; ++b) {
    EXPECT_EQ(*store.get(b), pattern(b, 4096)) << "block " << b;
  }
}

TEST(MmapStore, ViewsSurviveEraseOverwriteAndStoreDestruction) {
  ScratchDir dir("views");
  BlockBuffer erased, overwritten, orphaned;
  {
    MmapBlockStore store(dir.path());
    store.put(1, BlockBuffer::take(pattern(1, 4096)));
    store.put(2, BlockBuffer::take(pattern(2, 4096)));
    store.put(3, BlockBuffer::take(pattern(3, 4096)));
    erased = *store.get(1);
    overwritten = *store.get(2);
    orphaned = *store.get(3);
    store.erase(1);
    store.put(2, BlockBuffer::take(pattern(20, 4096)));
    // Old views still read the original bytes: segments are append-only and
    // the views' shared_ptr pins the mapping.
    EXPECT_EQ(erased, pattern(1, 4096));
    EXPECT_EQ(overwritten, pattern(2, 4096));
    EXPECT_EQ(*store.get(2), pattern(20, 4096));
  }
  // The store is gone; mappings outlive it through the views.
  EXPECT_EQ(erased, pattern(1, 4096));
  EXPECT_EQ(overwritten, pattern(2, 4096));
  EXPECT_EQ(orphaned, pattern(3, 4096));
}

TEST(MmapStore, OnFlushPolicyIsDurableAfterFlush) {
  ScratchDir dir("onflush");
  {
    MmapStoreOptions options;
    options.sync = MmapStoreOptions::SyncPolicy::kOnFlush;
    MmapBlockStore store(dir.path(), options);
    for (BlockId b = 0; b < 6; ++b) {
      store.put(b, BlockBuffer::take(pattern(b, 4096)));
    }
    store.flush();
  }
  MmapBlockStore reopened(dir.path());
  EXPECT_EQ(reopened.block_count(), 6u);
  for (BlockId b = 0; b < 6; ++b) {
    EXPECT_EQ(*reopened.get(b), pattern(b, 4096));
  }
}

TEST(MmapStore, RejectsForeignManifest) {
  ScratchDir dir("foreign");
  fs::create_directories(dir.path());
  {
    std::ofstream out(dir.path() + "/manifest.log", std::ios::binary);
    out << "NOTEARST garbage";
  }
  EXPECT_THROW(MmapBlockStore store(dir.path()), std::runtime_error);
}

// ---- crash consistency ---------------------------------------------------

// The core property: cut the manifest at EVERY byte position and the store
// must reopen to exactly the committed-record prefix, byte-identical, and
// stay writable.  Mirrors a crash that tore the manifest mid-append.
TEST(MmapStoreCrash, ManifestTruncationSweepRecoversCommittedPrefix) {
  ScratchDir master("sweep-master");
  // A mixed history: puts, an overwrite, an erase — each 1 record.
  struct Op {
    uint8_t type;  // 1=PUT 2=ERASE
    BlockId block;
    BlockId content;  // pattern seed for PUT
  };
  const std::vector<Op> ops = {
      {1, 0, 0}, {1, 1, 1}, {1, 2, 2},  {1, 3, 3},  {1, 1, 100},
      {2, 2, 0}, {1, 4, 4}, {2, 0, 0},  {1, 5, 5},  {1, 6, 6},
  };
  const size_t kBlockBytes = 2048;
  {
    MmapBlockStore store(master.path());
    for (const Op& op : ops) {
      if (op.type == 1) {
        store.put(op.block,
                  BlockBuffer::take(pattern(op.content, kBlockBytes)));
      } else {
        store.erase(op.block);
      }
    }
  }
  const int64_t manifest_size =
      static_cast<int64_t>(fs::file_size(master.path() + "/manifest.log"));
  ASSERT_EQ(manifest_size,
            kManifestHeader + kRecordSize * static_cast<int64_t>(ops.size()));

  ScratchDir work("sweep-work");
  for (int64_t cut = kManifestHeader; cut <= manifest_size; ++cut) {
    fs::remove_all(work.path());
    fs::copy(master.path(), work.path());
    truncate_file(work.path() + "/manifest.log", cut);

    MmapBlockStore store(work.path());
    const int64_t committed = (cut - kManifestHeader) / kRecordSize;

    // Expected index: the committed prefix of the history.
    std::map<BlockId, BlockId> expect;
    for (int64_t i = 0; i < committed; ++i) {
      const Op& op = ops[static_cast<size_t>(i)];
      if (op.type == 1) {
        expect[op.block] = op.content;
      } else {
        expect.erase(op.block);
      }
    }
    ASSERT_EQ(store.open_report().records_replayed, committed)
        << "cut=" << cut;
    ASSERT_EQ(store.block_count(), expect.size()) << "cut=" << cut;
    for (const auto& [block, content] : expect) {
      ASSERT_EQ(*store.get(block), pattern(content, kBlockBytes))
          << "cut=" << cut << " block=" << block;
    }
    // The torn tail is physically gone and the store stays writable.
    ASSERT_EQ(store.manifest_bytes(),
              kManifestHeader + kRecordSize * committed)
        << "cut=" << cut;
    if (cut % 97 == 0) {  // spot-check writability, not every iteration
      store.put(999, BlockBuffer::take(pattern(999, kBlockBytes)));
      ASSERT_EQ(*store.get(999), pattern(999, kBlockBytes));
    }
  }
}

TEST(MmapStoreCrash, OrphanSegmentTailIsTruncated) {
  ScratchDir dir("orphan-tail");
  {
    MmapBlockStore store(dir.path());
    store.put(1, BlockBuffer::take(pattern(1, 4096)));
  }
  // Payload landed in the segment but its manifest record was lost: model
  // by appending bytes the manifest doesn't cover.
  {
    std::ofstream seg(dir.path() + "/seg-000000.dat",
                      std::ios::binary | std::ios::app);
    const std::vector<uint8_t> junk(1234, 0xAB);
    seg.write(reinterpret_cast<const char*>(junk.data()),
              static_cast<std::streamsize>(junk.size()));
  }
  MmapBlockStore reopened(dir.path());
  EXPECT_EQ(reopened.open_report().segment_bytes_truncated, 1234);
  EXPECT_EQ(fs::file_size(dir.path() + "/seg-000000.dat"), 4096u);
  EXPECT_EQ(*reopened.get(1), pattern(1, 4096));
  // The reclaimed tail is reusable: the next put appends where the
  // watermark now is.
  reopened.put(2, BlockBuffer::take(pattern(2, 4096)));
  EXPECT_EQ(fs::file_size(dir.path() + "/seg-000000.dat"), 8192u);
}

TEST(MmapStoreCrash, CorruptPayloadIsDroppedOnVerify) {
  ScratchDir dir("corrupt");
  {
    MmapBlockStore store(dir.path());
    store.put(1, BlockBuffer::take(pattern(1, 4096)));
    store.put(2, BlockBuffer::take(pattern(2, 4096)));
  }
  // Flip one byte inside block 1's payload (offset 0 of segment 0).
  {
    std::fstream seg(dir.path() + "/seg-000000.dat",
                     std::ios::binary | std::ios::in | std::ios::out);
    seg.seekp(100);
    char byte;
    seg.seekg(100);
    seg.get(byte);
    byte = static_cast<char>(byte ^ 0xFF);
    seg.seekp(100);
    seg.put(byte);
  }
  MmapBlockStore reopened(dir.path());
  EXPECT_EQ(reopened.open_report().corrupt_blocks_dropped, 1);
  EXPECT_FALSE(reopened.contains(1)) << "corrupt block must not be served";
  EXPECT_EQ(*reopened.get(2), pattern(2, 4096));
}

#if !defined(EAR_TSAN)
// Real crash: a forked child writes blocks with fsync-per-commit and logs
// each block id to a side file only AFTER put() returned (so every logged
// id is a completed, durable commit).  The parent SIGKILLs it mid-stream
// and verifies every logged block reopens byte-identical.
TEST(MmapStoreCrash, SigkilledWriterLosesNoCommittedBlock) {
  for (int round = 0; round < 3; ++round) {
    ScratchDir dir("sigkill-" + std::to_string(round));
    const std::string committed_log = dir.path() + ".committed";
    fs::remove(committed_log);
    fs::create_directories(dir.path());

    const pid_t child = fork();
    ASSERT_GE(child, 0) << strerror(errno);
    if (child == 0) {
      // Child: write until killed.  _exit on any error; the parent only
      // trusts the committed log, not the child's exit.
      try {
        MmapStoreOptions options;
        options.segment_bytes = 64_KB;
        MmapBlockStore store(dir.path(), options);
        const int fd = ::open(committed_log.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd < 0) _exit(2);
        for (BlockId b = 0;; ++b) {
          store.put(b, BlockBuffer::take(pattern(b, 4096)));
          // put() returned => the commit is durable; log it durably too.
          const std::string line = std::to_string(b) + "\n";
          if (::write(fd, line.data(), line.size()) !=
              static_cast<ssize_t>(line.size())) {
            _exit(3);
          }
          if (::fdatasync(fd) != 0) _exit(4);
        }
      } catch (...) {
        _exit(5);
      }
    }

    // Parent: let the child commit a few blocks, then kill it cold.
    std::this_thread::sleep_for(std::chrono::milliseconds(60 + 40 * round));
    ASSERT_EQ(::kill(child, SIGKILL), 0) << strerror(errno);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child exited on its own (status " << status
        << ") — kill arrived too late to test anything";

    std::vector<BlockId> committed;
    {
      std::ifstream in(committed_log);
      BlockId b;
      while (in >> b) committed.push_back(b);
    }
    MmapBlockStore reopened(dir.path());
    for (const BlockId b : committed) {
      ASSERT_TRUE(reopened.contains(b))
          << "round " << round << ": committed block " << b
          << " lost after crash (report: replayed="
          << reopened.open_report().records_replayed << " torn="
          << reopened.open_report().torn_bytes_truncated << ")";
      ASSERT_EQ(*reopened.get(b), pattern(b, 4096));
    }
    fs::remove(committed_log);
  }
}
#endif  // !EAR_TSAN

// ---- concurrency ---------------------------------------------------------

TEST(MmapStore, ConcurrentPutsAndReadsFromDisjointRanges) {
  ScratchDir dir("concurrent");
  MmapStoreOptions options;
  options.sync = MmapStoreOptions::SyncPolicy::kOnFlush;
  options.segment_bytes = 64_KB;
  MmapBlockStore store(dir.path(), options);

  constexpr int kThreads = 4;
  constexpr BlockId kPerThread = 40;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store, t] {
      const BlockId base = static_cast<BlockId>(t) * kPerThread;
      for (BlockId b = base; b < base + kPerThread; ++b) {
        store.put(b, BlockBuffer::take(pattern(b, 2048)));
        const auto got = store.get(b);
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(*got, pattern(b, 2048));
        if (b > base) {
          ASSERT_TRUE(store.contains(b - 1));
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  store.flush();
  EXPECT_EQ(store.block_count(),
            static_cast<size_t>(kThreads * kPerThread));
  for (BlockId b = 0; b < kThreads * kPerThread; ++b) {
    EXPECT_EQ(*store.get(b), pattern(b, 2048));
  }
}

// ---- hostile manifests: MmapStoreMutation --------------------------------
//
// Seeded sweeps over a saved store's manifest: bit flips, every truncation,
// and huge block/segment/offset/length values in every record.  Each case
// re-stamps every record CRC so it reaches the field checks, and opens a
// fresh copy of the store.  The open must succeed or throw
// std::runtime_error, create at most the next segment file, and every block
// the store still serves must hold bytes once written as that block.  Built
// with GCC only, the compiler every CI job uses, so the seeded case lists
// are the ones CI ran.
#if defined(__GNUC__) && !defined(__clang__)

void put_le64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

void restamp_records(std::vector<uint8_t>* manifest) {
  for (size_t at = kManifestHeader; at + kRecordSize <= manifest->size();
       at += kRecordSize) {
    uint8_t* rec = manifest->data() + at;
    const uint32_t crc = crc32(rec, 44);
    for (int i = 0; i < 4; ++i) rec[44 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
}

std::vector<uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

int open_fds() {
  int count = 0;
  for (const auto& entry : fs::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

int segment_files(const std::string& dir) {
  int count = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("seg-", 0) == 0) ++count;
  }
  return count;
}

// A closed store of small blocks over four segments, with an overwrite, an
// erase and an empty block, plus every version each block was written as.
class MutationStore {
 public:
  // Directories are named after the running test: ctest runs the sweeps
  // in parallel processes.
  MutationStore()
      : master_(std::string("mutation-master-") + test_name()),
        work_(std::string("mutation-work-") + test_name()) {
    MmapStoreOptions options;
    options.segment_bytes = 256;
    MmapBlockStore store(master_.path(), options);
    const auto put = [&](BlockId block, BlockId content, size_t size) {
      store.put(block, BlockBuffer::take(pattern(content, size)));
      written_[block].push_back(pattern(content, size));
    };
    for (BlockId b = 0; b < 6; ++b) put(b, b, 96);
    put(2, 20, 96);
    store.erase(4);
    put(6, 6, 0);
    put(7, 7, 96);
    segments_ = store.segment_count();
    manifest_ = read_file(master_.path() + "/manifest.log");
  }

  const std::vector<uint8_t>& manifest() const { return manifest_; }
  int segments() const { return segments_; }

  static const char* test_name() {
    return ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }

  struct Outcomes {
    int opened = 0;
    int rejected = 0;
  };

  // Opens a copy of the store whose manifest is `manifest`.
  void open(const std::vector<uint8_t>& manifest, const std::string& what,
            Outcomes* outcomes) const {
    fs::remove_all(work_.path());
    fs::copy(master_.path(), work_.path());
    {
      std::ofstream out(work_.path() + "/manifest.log",
                        std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(manifest.data()),
                static_cast<std::streamsize>(manifest.size()));
    }
    try {
      MmapBlockStore store(work_.path());
      ++outcomes->opened;
      for (const BlockId b : store.block_ids()) {
        const auto got = store.get(b);
        const auto versions = written_.find(b);
        if (!got || versions == written_.end() ||
            std::none_of(versions->second.begin(), versions->second.end(),
                         [&got](const std::vector<uint8_t>& bytes) {
                           return *got == bytes;
                         })) {
          ADD_FAILURE() << what << ": block " << b
                        << " served bytes never written as it";
        }
      }
    } catch (const std::runtime_error&) {
      ++outcomes->rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": " << typeid(e).name() << ": " << e.what();
    } catch (...) {
      ADD_FAILURE() << what << ": non-standard exception";
    }
    EXPECT_LE(segment_files(work_.path()), segments_ + 1) << what;
  }

 private:
  ScratchDir master_;
  ScratchDir work_;
  std::vector<uint8_t> manifest_;
  int segments_ = 0;
  std::map<BlockId, std::vector<std::vector<uint8_t>>> written_;
};

TEST(MmapStoreMutation, BitFlipsOpenOrThrowAndServeOnlyWrittenBytes) {
  const MutationStore store;
  ASSERT_EQ(store.segments(), 4);
  const auto& manifest = store.manifest();
  const int fds = open_fds();
  Rng rng(23);
  MutationStore::Outcomes outcomes;
  // One random bit in every byte, then random two- to four-bit bursts.
  for (size_t at = 0; at < manifest.size(); ++at) {
    auto bad = manifest;
    bad[at] ^= static_cast<uint8_t>(1u << rng.uniform(8));
    restamp_records(&bad);
    store.open(bad, "flip at " + std::to_string(at), &outcomes);
  }
  for (int i = 0; i < 300; ++i) {
    auto bad = manifest;
    const int flips = 2 + static_cast<int>(rng.uniform(3));
    for (int f = 0; f < flips; ++f) {
      bad[rng.uniform(manifest.size())] ^=
          static_cast<uint8_t>(1u << rng.uniform(8));
    }
    restamp_records(&bad);
    store.open(bad, "burst " + std::to_string(i), &outcomes);
  }
  // Magic bits are rejected; record bits open with fewer blocks.
  EXPECT_GT(outcomes.opened, 0);
  EXPECT_GT(outcomes.rejected, 0);
  EXPECT_EQ(open_fds(), fds) << "a rejected open leaked descriptors";
}

TEST(MmapStoreMutation, EveryTruncationOpensToAWrittenPrefix) {
  const MutationStore store;
  const auto& manifest = store.manifest();
  MutationStore::Outcomes outcomes;
  for (size_t len = 0; len < manifest.size(); ++len) {
    const std::vector<uint8_t> cut(
        manifest.begin(), manifest.begin() + static_cast<ptrdiff_t>(len));
    store.open(cut, "truncated to " + std::to_string(len), &outcomes);
  }
  // A cut inside the magic starts a fresh store; every other cut keeps the
  // committed prefix.
  EXPECT_EQ(outcomes.rejected, 0);
}

TEST(MmapStoreMutation, HugeFieldValuesOpenOrThrow) {
  const MutationStore store;
  const auto& manifest = store.manifest();
  MutationStore::Outcomes outcomes;
  // Written over the block, segment, offset and length field of every
  // record; 5000 and 0xFFFFFFFF as a segment once segfaulted the open or
  // made it create thousands of segment files.
  for (size_t rec = kManifestHeader; rec + kRecordSize <= manifest.size();
       rec += kRecordSize) {
    for (const size_t field : {8, 16, 24, 32}) {
      for (const uint64_t huge :
           {~uint64_t{0}, uint64_t{1} << 63, (uint64_t{1} << 63) - 1,
            uint64_t{1} << 40, uint64_t{1} << 32, uint64_t{0xFFFFFFFF},
            uint64_t{5000}}) {
        auto bad = manifest;
        put_le64(bad.data() + rec + field, huge);
        restamp_records(&bad);
        store.open(bad,
                   "value " + std::to_string(huge) + " at " +
                       std::to_string(rec + field),
                   &outcomes);
      }
    }
  }
  EXPECT_GT(outcomes.opened, 0);
}

TEST(MmapStoreMutation, LoneRecordNamingAFarSegmentCreatesNoFiles) {
  // The 56-byte manifest: a header and one PUT naming segment 5000, or
  // 0xFFFFFFFF, in an otherwise empty directory.
  for (const uint32_t segment : {5000u, 0xFFFFFFFFu}) {
    ScratchDir dir("far-segment");
    fs::create_directories(dir.path());
    std::vector<uint8_t> manifest(kManifestHeader + kRecordSize, 0);
    std::memcpy(manifest.data(), "EARSTOR2", 8);
    uint8_t* rec = manifest.data() + kManifestHeader;
    put_le64(rec, 0x4D524145u | (uint64_t{1} << 32));  // marker, type PUT
    put_le64(rec + 8, 1);                               // block
    put_le64(rec + 16, segment);
    put_le64(rec + 32, 64);                             // length
    restamp_records(&manifest);
    {
      std::ofstream out(dir.path() + "/manifest.log", std::ios::binary);
      out.write(reinterpret_cast<const char*>(manifest.data()),
                static_cast<std::streamsize>(manifest.size()));
    }
    MmapBlockStore store(dir.path());
    EXPECT_EQ(store.block_count(), 0u) << segment;
    EXPECT_EQ(store.open_report().records_replayed, 0) << segment;
    EXPECT_EQ(store.open_report().torn_bytes_truncated, kRecordSize)
        << segment;
    EXPECT_EQ(segment_files(dir.path()), 0) << segment;
  }
}

#endif  // GCC

}  // namespace
}  // namespace ear::store

// ---- MiniCfs integration -------------------------------------------------

namespace ear::cfs {

// Friend of MiniCfs: reaches the private fetch/erase error paths.
class MiniCfsTestPeer {
 public:
  static datapath::BlockBuffer fetch(MiniCfs& cfs, NodeId node,
                                     BlockId block) {
    return cfs.fetch(node, block);
  }
  static void erase(MiniCfs& cfs, NodeId node, BlockId block) {
    cfs.erase(node, block);
  }
};

namespace {

namespace fs = std::filesystem;

// One synchronous repair pass over the whole namespace.
failure::RepairManager::Report repair_all(MiniCfs& cfs) {
  failure::RepairManager repair(cfs, failure::RepairConfig{});
  repair.schedule_scan();
  return repair.drain();
}

std::vector<uint8_t> pattern(BlockId block, size_t size) {
  std::vector<uint8_t> out(size);
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<uint8_t>((static_cast<uint64_t>(block) * 31 + i) &
                                  0xFF);
  }
  return out;
}

CfsConfig store_cfg() {
  CfsConfig cfg;
  cfg.racks = 6;
  cfg.nodes_per_rack = 3;
  cfg.placement.code = CodeParams{6, 4};
  cfg.placement.replication = 3;
  cfg.use_ear = true;
  cfg.block_size = 8_KB;
  cfg.seed = 77;
  return cfg;
}

std::unique_ptr<MiniCfs> make_cfs(const CfsConfig& cfg) {
  const Topology topo(cfg.racks, cfg.nodes_per_rack);
  return std::make_unique<MiniCfs>(cfg,
                                   std::make_unique<InstantTransport>(topo));
}

// Writes blocks until two stripes seal, encodes the first, returns the
// contents map.
std::map<BlockId, std::vector<uint8_t>> populate(MiniCfs& cfs) {
  std::map<BlockId, std::vector<uint8_t>> contents;
  BlockId seed = 0;
  while (cfs.sealed_stripes().size() < 2) {
    auto data = pattern(seed++, static_cast<size_t>(cfs.config().block_size));
    const BlockId id = cfs.write_block(data);
    contents[id] = std::move(data);
  }
  cfs.encode_stripe(cfs.sealed_stripes()[0]);
  return contents;
}

// Writes `count` replicated blocks with NO encoding: every store record is
// a PUT, so the restart tests' manifest surgery has a deterministic effect
// (encode would append replica-delete ERASE records).
std::map<BlockId, std::vector<uint8_t>> populate_replicated(MiniCfs& cfs,
                                                            int count) {
  std::map<BlockId, std::vector<uint8_t>> contents;
  for (int i = 0; i < count; ++i) {
    auto data = pattern(i, static_cast<size_t>(cfs.config().block_size));
    const BlockId id = cfs.write_block(data);
    contents[id] = std::move(data);
  }
  return contents;
}

TEST(StoreCfs, MemAndMmapClustersServeIdenticalReads) {
  auto mem_cfg = store_cfg();
  auto mmap_cfg = store_cfg();
  mmap_cfg.store_backend = store::StoreBackend::kMmap;
  mmap_cfg.store_dir = ::testing::TempDir() + "/ear-store-cfs-equiv";
  fs::remove_all(mmap_cfg.store_dir);

  auto mem = make_cfs(mem_cfg);
  auto mmap = make_cfs(mmap_cfg);
  const auto mem_contents = populate(*mem);
  const auto mmap_contents = populate(*mmap);

  // Same seed, same op sequence: identical ids, placement and bytes.
  ASSERT_EQ(mem_contents.size(), mmap_contents.size());
  for (const auto& [id, data] : mem_contents) {
    ASSERT_TRUE(mmap_contents.count(id));
    EXPECT_EQ(mem->block_locations(id), mmap->block_locations(id));
    EXPECT_EQ(mem->read_block(id, 0), data);
    EXPECT_EQ(mmap->read_block(id, 0), data);
  }

  // Degraded reads decode the same bytes out of both backends.
  const StripeId encoded = mem->sealed_stripes()[0];
  const BlockId victim = mem->stripe_meta(encoded).data_blocks[0];
  mem->kill_node(mem->block_locations(victim)[0]);
  mmap->kill_node(mmap->block_locations(victim)[0]);
  NodeId reader = 0;
  while (!mem->node_alive(reader)) ++reader;
  EXPECT_EQ(mem->read_block(victim, reader), mem_contents.at(victim));
  EXPECT_EQ(mmap->read_block(victim, reader), mem_contents.at(victim));

  mmap.reset();
  fs::remove_all(mmap_cfg.store_dir);
}

TEST(StoreCfs, FetchAndEraseNameNodeBlockAndBackendInErrors) {
  auto cfs = make_cfs(store_cfg());
  try {
    MiniCfsTestPeer::fetch(*cfs, 4, 1234);
    FAIL() << "fetch of a missing block must throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("block 1234"), std::string::npos) << msg;
    EXPECT_NE(msg.find("node 4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("mem"), std::string::npos) << msg;
  }
  try {
    MiniCfsTestPeer::erase(*cfs, 2, 987);
    FAIL() << "erase of a missing block must throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("block 987"), std::string::npos) << msg;
    EXPECT_NE(msg.find("node 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("mem"), std::string::npos) << msg;
  }
}

TEST(StoreCfs, RestartNodeMmapRecoversBlocksAndRepairsOnlyTheDelta) {
  auto cfg = store_cfg();
  cfg.store_backend = store::StoreBackend::kMmap;
  cfg.store_dir = ::testing::TempDir() + "/ear-store-cfs-restart";
  fs::remove_all(cfg.store_dir);
  auto cfs = make_cfs(cfg);
  const auto contents = populate_replicated(*cfs, 16);

  // Pick a node holding several replicated (un-encoded) blocks.
  NodeId victim = 0;
  for (NodeId n = 0; n < cfg.racks * cfg.nodes_per_rack; ++n) {
    if (cfs->blocks_stored_on(n) > cfs->blocks_stored_on(victim)) victim = n;
  }
  const int64_t held = cfs->blocks_stored_on(victim);
  ASSERT_GT(held, 1);

  cfs->kill_node(victim);

  // Crash damage: tear the last manifest record off the victim's store so
  // exactly one committed block is lost (the delta).
  char sub[16];
  std::snprintf(sub, sizeof(sub), "node-%04d", victim);
  const std::string manifest =
      cfg.store_dir + "/" + sub + "/manifest.log";
  const int64_t manifest_size = static_cast<int64_t>(fs::file_size(manifest));
  ASSERT_EQ(::truncate(manifest.c_str(),
                       static_cast<off_t>(manifest_size - 48)),
            0)
      << strerror(errno);

  const auto report = cfs->restart_node(victim);
  EXPECT_EQ(report.blocks_recovered, held - 1);
  EXPECT_EQ(report.locations_pruned, 1);
  // The namespace still listed this node (nothing repaired it away while
  // it was down), so survivors need no re-adding.
  EXPECT_EQ(report.blocks_reregistered, 0);

  // Redundancy repair moves only the lost delta, not the whole node.
  const int64_t before = cfs->transport().cross_rack_bytes() +
                         cfs->transport().intra_rack_bytes();
  const auto recovery = repair_all(*cfs);
  const int64_t repaired_bytes = cfs->transport().cross_rack_bytes() +
                                 cfs->transport().intra_rack_bytes() - before;
  EXPECT_EQ(recovery.re_replicated + recovery.repaired, 1);
  EXPECT_LT(repaired_bytes, held * cfg.block_size);

  // Every byte is still served correctly afterwards.
  for (const auto& [id, data] : contents) {
    EXPECT_EQ(cfs->read_block(id, 1), data);
  }

  // Second crash, but this time redundancy is restored while the node is
  // down: the NameNode prunes it and re-homes its blocks, so the restart
  // must re-register every surviving on-disk copy.
  const int64_t held2 = cfs->blocks_stored_on(victim);
  ASSERT_GT(held2, 0);
  cfs->kill_node(victim);
  repair_all(*cfs);
  const auto report2 = cfs->restart_node(victim);
  EXPECT_EQ(report2.blocks_recovered, held2);
  EXPECT_EQ(report2.locations_pruned, 0);
  EXPECT_EQ(report2.blocks_reregistered, held2);
  for (const auto& [id, data] : contents) {
    EXPECT_EQ(cfs->read_block(id, 1), data);
  }

  cfs.reset();
  fs::remove_all(cfg.store_dir);
}

TEST(StoreCfs, RestartNodeMemLosesEverythingAndRebuildsInFull) {
  auto cfs = make_cfs(store_cfg());
  const auto contents = populate_replicated(*cfs, 16);

  NodeId victim = 0;
  const int total_nodes = store_cfg().racks * store_cfg().nodes_per_rack;
  for (NodeId n = 0; n < total_nodes; ++n) {
    if (cfs->blocks_stored_on(n) > cfs->blocks_stored_on(victim)) victim = n;
  }
  const int64_t held = cfs->blocks_stored_on(victim);
  ASSERT_GT(held, 1);

  cfs->kill_node(victim);
  const auto report = cfs->restart_node(victim);
  EXPECT_EQ(report.blocks_recovered, 0) << "mem restart loses the store";
  EXPECT_EQ(report.locations_pruned, held);
  EXPECT_EQ(report.blocks_reregistered, 0);
  EXPECT_EQ(cfs->blocks_stored_on(victim), 0);

  // Full rebuild: every block the node held needs redundancy work.
  const auto recovery = repair_all(*cfs);
  EXPECT_GE(recovery.re_replicated + recovery.repaired, held);
  for (const auto& [id, data] : contents) {
    EXPECT_EQ(cfs->read_block(id, 1), data);
  }
}

}  // namespace
}  // namespace ear::cfs
