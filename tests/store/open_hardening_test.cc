// Open() hardening: a foreign or half-written directory must be
// rejected with a clear one-line error and no partial state, a legacy
// (pre-store.meta) home must still be adopted, and a snapshot cut at
// any byte boundary must fail typed — never restore partially.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "org/rdl_dump.h"
#include "store/durable_rm.h"
#include "store/record.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace wfrm::store {
namespace {

constexpr char kRdl[] = R"(
  Define Resource Type Employee
      (ContactInfo String, Location String, Experience Int);
  Insert Resource Employee 'alice'
      (ContactInfo = 'alice@x.com', Location = 'PA', Experience = 8);
)";

class OpenHardeningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "wfrm_open_XXXXXX").string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    root_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  std::string Dir(const std::string& name) {
    std::string dir = root_ + "/" + name;
    std::filesystem::create_directories(dir);
    return dir;
  }

  static void WriteBytes(const std::string& path, std::string_view bytes) {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  static std::string ReadBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  /// A real store: workload + checkpoint + a WAL tail. `legacy`, when
  /// set, receives the checkpointed state as the legacy snapshot.dat
  /// image the truncation test slices up.
  void MakeGolden(const std::string& dir, SnapshotData* legacy = nullptr) {
    DurableOptions options;
    options.fsync_mode = FsyncMode::kOff;
    auto d = DurableResourceManager::Open(dir, options);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    ASSERT_TRUE((*d)->ExecuteRdl(kRdl).ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*d)
                      ->ExecuteRdl("Insert Resource Employee 'e" +
                                   std::to_string(i) +
                                   "' (ContactInfo = 'e@x.com', Location = "
                                   "'PA', Experience = 1);")
                      .ok());
    }
    ASSERT_TRUE((*d)->Checkpoint().ok());
    if (legacy != nullptr) {
      legacy->last_seq = (*d)->last_seq();
      legacy->rdl_text = *org::DumpRdl((*d)->org());
    }
    ASSERT_TRUE((*d)->ExecuteRdl("Insert Resource Employee 'tail' "
                                 "(ContactInfo = 't@x.com', Location = 'PA', "
                                 "Experience = 2);")
                    .ok());
  }

  std::string root_;
};

TEST_F(OpenHardeningTest, ForeignWalIsRejectedUntouched) {
  std::string dir = Dir("foreign");
  const std::string garbage = "this is somebody else's log file\n";
  WriteBytes(dir + "/wal.log", garbage);

  auto d = DurableResourceManager::Open(dir);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(d.status().message().find("is not a wfrm durable home"),
            std::string::npos)
      << d.status().ToString();
  // No partial state: the foreign file was not truncated or "repaired",
  // and no marker was stamped into a directory we do not own.
  EXPECT_EQ(ReadBytes(dir + "/wal.log"), garbage);
  EXPECT_FALSE(std::filesystem::exists(dir + "/store.meta"));
}

TEST_F(OpenHardeningTest, ForeignMetaMagicIsRejected) {
  std::string dir = Dir("magic");
  std::string payload;
  AppendString(&payload, "someone-elses-product-v3");
  std::string bytes;
  AppendWalFrame(&bytes, payload);
  WriteBytes(dir + "/store.meta", bytes);

  auto d = DurableResourceManager::Open(dir);
  ASSERT_FALSE(d.ok());
  EXPECT_NE(d.status().message().find("foreign magic"), std::string::npos)
      << d.status().ToString();
}

TEST_F(OpenHardeningTest, MismatchedFormatVersionIsRejected) {
  std::string dir = Dir("version");
  std::string payload;
  AppendString(&payload, "wfrm-store-v1");
  AppendU32(&payload, 99);
  std::string bytes;
  AppendWalFrame(&bytes, payload);
  WriteBytes(dir + "/store.meta", bytes);

  auto d = DurableResourceManager::Open(dir);
  ASSERT_FALSE(d.ok());
  EXPECT_NE(d.status().message().find("holds store format v99"),
            std::string::npos)
      << d.status().ToString();
}

TEST_F(OpenHardeningTest, HalfWrittenMetaIsRejected) {
  std::string dir = Dir("torn");
  std::string payload;
  AppendString(&payload, "wfrm-store-v1");
  AppendU32(&payload, 1);
  std::string bytes;
  AppendWalFrame(&bytes, payload);
  WriteBytes(dir + "/store.meta", std::string_view(bytes).substr(0, 6));

  auto d = DurableResourceManager::Open(dir);
  ASSERT_FALSE(d.ok());
  EXPECT_NE(d.status().message().find("store.meta is damaged"),
            std::string::npos)
      << d.status().ToString();
}

TEST_F(OpenHardeningTest, LegacyHomeWithoutMarkerIsAdoptedAndStamped) {
  std::string dir = Dir("legacy");
  ASSERT_NO_FATAL_FAILURE(MakeGolden(dir));
  ASSERT_TRUE(std::filesystem::remove(dir + "/store.meta"));

  auto d = DurableResourceManager::Open(dir);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE((*d)->org().GetResource({"Employee", "tail"}).ok());
  // Adoption stamps the marker so the next open validates the fast way.
  EXPECT_TRUE(std::filesystem::exists(dir + "/store.meta"));
}

TEST_F(OpenHardeningTest, EmptyDirectoryIsAFreshStore) {
  auto d = DurableResourceManager::Open(Dir("fresh"));
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(std::filesystem::exists(root_ + "/fresh/store.meta"));
}

TEST_F(OpenHardeningTest, TruncatedSnapshotFailsTypedAtEveryBoundary) {
  std::string golden = Dir("golden");
  SnapshotData legacy;
  ASSERT_NO_FATAL_FAILURE(MakeGolden(golden, &legacy));
  const std::string snapshot = EncodeSnapshot(legacy);
  ASSERT_GT(snapshot.size(), 8u);

  // Cut at every 1/8 boundary (including the empty file). A truncated
  // snapshot must be a clean typed rejection — recovery never falls
  // back to a partial restore, because a partial snapshot plus a
  // truncated WAL silently resurrects released resources.
  for (int i = 0; i < 8; ++i) {
    std::string dir = Dir("cut" + std::to_string(i));
    std::filesystem::copy_file(golden + "/store.meta", dir + "/store.meta");
    std::filesystem::copy_file(golden + "/wal.log", dir + "/wal.log");
    const size_t cut = snapshot.size() * static_cast<size_t>(i) / 8;
    WriteBytes(dir + "/snapshot.dat",
               std::string_view(snapshot).substr(0, cut));

    auto d = DurableResourceManager::Open(dir);
    ASSERT_FALSE(d.ok()) << "cut at " << cut << " of " << snapshot.size()
                         << " bytes was accepted";
    EXPECT_EQ(d.status().code(), StatusCode::kExecutionError);
    EXPECT_NE(d.status().message().find("corrupt"), std::string::npos)
        << d.status().ToString();
  }

  // Sanity: the uncut snapshot still opens.
  WriteBytes(golden + "/snapshot.dat", snapshot);
  auto d = DurableResourceManager::Open(golden);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
}

}  // namespace
}  // namespace wfrm::store
