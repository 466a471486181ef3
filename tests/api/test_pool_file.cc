/**
 * The `.dnapool` format itself: round trips with and without pools,
 * the corruption contract (one flipped byte in ANY section surfaces
 * as DataLoss naming that section, because every CRC is verified
 * before its payload is parsed), the version gate (an intact header
 * carrying an unknown version is FailedPrecondition, a corrupted
 * version byte is DataLoss), and truncation/trailing-byte handling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "api/pool_file.hh"
#include "util/crc32.hh"

using namespace dnastore;
using namespace dnastore::api;

namespace {

Strand
strandOf(const char *acgt)
{
    return strandFromString(acgt);
}

/** A small, fully-populated contents value (pools included). */
PoolFileContents
sampleContents()
{
    PoolFileContents c;
    c.config = StorageConfig::tinyTest();
    c.config.primerKey = 7;
    c.scheme = LayoutScheme::DnaMapper;
    c.unitSeed = 0xDEADBEEFCAFEF00Dull;
    c.manifest.add("a.bin", { 1, 2, 3, 4 });
    c.manifest.add("b.bin", { 250, 251 });
    c.payloadBits = 1234;
    c.strands = { strandOf("ACGTACGTA"), strandOf("TTTT"),
                  strandOf("GCGCGCG") };
    c.hasPools = true;
    c.poolMaxCoverage = 2;
    c.pools = {
        { strandOf("ACGTACGT"), strandOf("ACGTACG") },
        { strandOf("TTT"), strandOf("TTTTT") },
        { strandOf("GCGC"), strandOf("GCGCG") },
    };
    return c;
}

void
expectEqual(const PoolFileContents &a, const PoolFileContents &b)
{
    EXPECT_EQ(a.config.symbolBits, b.config.symbolBits);
    EXPECT_EQ(a.config.rows, b.config.rows);
    EXPECT_EQ(a.config.paritySymbols, b.config.paritySymbols);
    EXPECT_EQ(a.config.primerLen, b.config.primerLen);
    EXPECT_EQ(a.config.primerKey, b.config.primerKey);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.unitSeed, b.unitSeed);
    ASSERT_EQ(a.manifest.fileCount(), b.manifest.fileCount());
    for (size_t i = 0; i < a.manifest.fileCount(); ++i) {
        EXPECT_EQ(a.manifest.file(i).name, b.manifest.file(i).name);
        EXPECT_EQ(a.manifest.file(i).data, b.manifest.file(i).data);
    }
    EXPECT_EQ(a.payloadBits, b.payloadBits);
    EXPECT_EQ(a.strands, b.strands);
    EXPECT_EQ(a.hasPools, b.hasPools);
    EXPECT_EQ(a.poolMaxCoverage, b.poolMaxCoverage);
    EXPECT_EQ(a.pools, b.pools);
}

} // namespace

TEST(PoolFileFormat, RoundTripWithPools)
{
    const PoolFileContents original = sampleContents();
    const std::vector<uint8_t> bytes = serializePoolFile(original);
    Result<PoolFileContents> parsed = parsePoolFile(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    expectEqual(original, *parsed);
}

TEST(PoolFileFormat, RoundTripWithoutPools)
{
    PoolFileContents original = sampleContents();
    original.hasPools = false;
    original.poolMaxCoverage = 0;
    original.pools.clear();
    const std::vector<uint8_t> bytes = serializePoolFile(original);
    Result<PoolFileContents> parsed = parsePoolFile(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    expectEqual(original, *parsed);
    EXPECT_FALSE(parsed->hasPools);
}

TEST(PoolFileFormat, SerializationIsDeterministic)
{
    // Identical contents -> identical bytes, the property behind the
    // CI's pack -> unpack -> byte-compare round trip.
    const PoolFileContents c = sampleContents();
    EXPECT_EQ(serializePoolFile(c), serializePoolFile(c));
}

TEST(PoolFileFormat, SectionSpansCoverTheWholeFile)
{
    const std::vector<uint8_t> bytes =
        serializePoolFile(sampleContents());
    Result<std::vector<PoolFileSection>> sections =
        poolFileSections(bytes);
    ASSERT_TRUE(sections.ok()) << sections.status().toString();
    // Header + config + manifest + unit + pools, contiguous.
    ASSERT_EQ(sections->size(), 5u);
    EXPECT_STREQ((*sections)[0].name, "header");
    EXPECT_STREQ((*sections)[1].name, "config");
    EXPECT_STREQ((*sections)[2].name, "manifest");
    EXPECT_STREQ((*sections)[3].name, "unit");
    EXPECT_STREQ((*sections)[4].name, "pools");
    EXPECT_EQ((*sections)[0].begin, 0u);
    for (size_t i = 1; i < sections->size(); ++i)
        EXPECT_EQ((*sections)[i].begin, (*sections)[i - 1].end);
    EXPECT_EQ(sections->back().end, bytes.size());
}

// The core durability contract: flip ONE byte anywhere inside ANY
// section (its length fields included) and the parse must fail with
// DataLoss naming exactly that section — never a misparse, never a
// crash, never the wrong section's name.
TEST(PoolFileFormat, SingleByteCorruptionInEverySectionIsNamedDataLoss)
{
    const std::vector<uint8_t> bytes =
        serializePoolFile(sampleContents());
    Result<std::vector<PoolFileSection>> sections =
        poolFileSections(bytes);
    ASSERT_TRUE(sections.ok());

    for (const PoolFileSection &section : *sections) {
        // The first 8 header bytes are the magic: corrupting those
        // reports "wrong file type" instead (tested separately), so
        // start the header span after the magic.
        const size_t begin =
            section.id == 0 ? section.begin + 8 : section.begin;
        for (size_t pos = begin; pos < section.end; ++pos) {
            std::vector<uint8_t> corrupt = bytes;
            corrupt[pos] ^= 0x20;
            Result<PoolFileContents> parsed = parsePoolFile(corrupt);
            ASSERT_FALSE(parsed.ok())
                << section.name << " byte " << pos;
            EXPECT_EQ(parsed.status().code(), StatusCode::DataLoss)
                << section.name << " byte " << pos << ": "
                << parsed.status().toString();
            // A flip inside the 4-byte section-id field still fails
            // the CRC, but the reported name is derived from the
            // (now rotted) id — only payload/length/CRC bytes can be
            // attributed to the section by name.
            const bool in_id_field =
                section.id != 0 && pos < section.begin + 4;
            if (!in_id_field) {
                EXPECT_NE(
                    parsed.status().message().find(section.name),
                    std::string::npos)
                    << section.name << " byte " << pos << ": "
                    << parsed.status().toString();
            }
        }
    }
}

TEST(PoolFileFormat, UnknownVersionWithIntactHeaderIsFailedPrecondition)
{
    std::vector<uint8_t> bytes = serializePoolFile(sampleContents());
    // Bump the version field (offset 8, LE u32) to a future value and
    // RE-SIGN the header so it is intact — this is a future writer's
    // file, not bit rot.
    bytes[8] = uint8_t(kPoolFormatVersion + 1);
    const uint32_t new_crc = crc32(bytes.data(), 16);
    for (int i = 0; i < 4; ++i)
        bytes[16 + size_t(i)] = uint8_t(new_crc >> (8 * i));
    Result<PoolFileContents> parsed = parsePoolFile(bytes);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::FailedPrecondition)
        << parsed.status().toString();
    EXPECT_NE(parsed.status().message().find("version"),
              std::string::npos);
}

TEST(PoolFileFormat, WrongMagicIsFailedPrecondition)
{
    std::vector<uint8_t> bytes = serializePoolFile(sampleContents());
    bytes[0] = 'X';
    Result<PoolFileContents> parsed = parsePoolFile(bytes);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::FailedPrecondition);

    // A file that is something else entirely.
    const std::string text = "not a pool file at all";
    Result<PoolFileContents> other = parsePoolFile(std::vector<uint8_t>(
        text.begin(), text.end()));
    ASSERT_FALSE(other.ok());
    EXPECT_EQ(other.status().code(), StatusCode::FailedPrecondition);
}

TEST(PoolFileFormat, TruncationAtEveryLengthIsAnError)
{
    const std::vector<uint8_t> bytes =
        serializePoolFile(sampleContents());
    for (size_t len = 0; len < bytes.size(); ++len) {
        std::vector<uint8_t> cut(bytes.begin(),
                                 bytes.begin() + long(len));
        Result<PoolFileContents> parsed = parsePoolFile(cut);
        ASSERT_FALSE(parsed.ok()) << "length " << len;
        EXPECT_EQ(parsed.status().code(), StatusCode::DataLoss)
            << "length " << len << ": " << parsed.status().toString();
    }
}

TEST(PoolFileFormat, TrailingBytesAreDataLoss)
{
    std::vector<uint8_t> bytes = serializePoolFile(sampleContents());
    bytes.push_back(0xAB);
    Result<PoolFileContents> parsed = parsePoolFile(bytes);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::DataLoss);
    EXPECT_NE(parsed.status().message().find("trailing"),
              std::string::npos);
}

TEST(PoolFileFormat, ReadMissingFileIsNotFound)
{
    Result<PoolFileContents> parsed =
        readPoolFile("/nonexistent/no/such.dnapool");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::NotFound);
}

TEST(PoolFileFormat, WriteReadFileRoundTrip)
{
    const PoolFileContents original = sampleContents();
    const std::string path =
        testing::TempDir() + "pool_file_round_trip.dnapool";
    ASSERT_TRUE(writePoolFile(path, original).ok());
    Result<PoolFileContents> parsed = readPoolFile(path);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    expectEqual(original, *parsed);
    std::remove(path.c_str());
}

// Zip-slip defense: a pool file whose manifest names an object
// "../x" (valid CRC, crafted bytes) must be rejected at parse time —
// names that could escape an unpack directory never reach callers.
TEST(PoolFileFormat, TraversalNameInManifestIsRejected)
{
    std::vector<uint8_t> bytes = serializePoolFile(sampleContents());
    Result<std::vector<PoolFileSection>> sections =
        poolFileSections(bytes);
    ASSERT_TRUE(sections.ok());
    const PoolFileSection &manifest = (*sections)[2];
    ASSERT_STREQ(manifest.name, "manifest");
    // Payload: u32 count, u8 name_len, then the first name ("a.bin",
    // 5 bytes). Swap in a same-length traversal name and RE-SIGN the
    // section CRC so only the name rule can reject the file.
    const size_t name_at = manifest.begin + 12 + 4 + 1;
    const std::string evil = "../.b";
    std::copy(evil.begin(), evil.end(), bytes.begin() + long(name_at));
    const uint32_t crc = crc32(bytes.data() + manifest.begin,
                               manifest.end - manifest.begin - 4);
    for (int i = 0; i < 4; ++i)
        bytes[manifest.end - 4 + size_t(i)] = uint8_t(crc >> (8 * i));
    Result<PoolFileContents> parsed = parsePoolFile(bytes);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::FailedPrecondition)
        << parsed.status().toString();
    EXPECT_NE(parsed.status().message().find("manifest"),
              std::string::npos);
}

/** Names of the temp siblings of @p path (`<name>.tmp*`) on disk. */
std::vector<std::string>
tempSiblings(const std::string &path)
{
    const std::filesystem::path p(path);
    const std::string prefix = p.filename().string() + ".tmp";
    std::vector<std::string> out;
    for (const auto &entry :
         std::filesystem::directory_iterator(p.parent_path())) {
        const std::string name = entry.path().filename().string();
        if (name.compare(0, prefix.size(), prefix) == 0)
            out.push_back(name);
    }
    return out;
}

// Saves replace atomically: a successful save leaves no temp sibling
// of any name behind, saving over an existing file round-trips, and a
// failing save is Unavailable (never a half-written target).
TEST(PoolFileFormat, WriteIsAtomicReplacement)
{
    const std::string path =
        testing::TempDir() + "pool_file_atomic.dnapool";
    ASSERT_TRUE(writePoolFile(path, sampleContents()).ok());
    EXPECT_TRUE(tempSiblings(path).empty()) << "stale temp file left behind";

    PoolFileContents second = sampleContents();
    second.unitSeed = 1;
    ASSERT_TRUE(writePoolFile(path, second).ok());
    EXPECT_TRUE(tempSiblings(path).empty()) << "stale temp file left behind";
    Result<PoolFileContents> parsed = readPoolFile(path);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed->unitSeed, 1u);
    std::remove(path.c_str());

    Status bad =
        writePoolFile("/nonexistent/dir/x.dnapool", sampleContents());
    EXPECT_EQ(bad.code(), StatusCode::Unavailable);
}

// A `<path>.tmp` planted as a symlink must not redirect a save: the
// file it points at stays intact, and the target becomes a regular
// file holding the saved pool (not the planted link).
TEST(PoolFileFormat, PlantedTempSymlinkIsNotFollowed)
{
    const std::string path = testing::TempDir() + "pool_file_planted.dnapool";
    const std::string sentinel =
        testing::TempDir() + "pool_file_planted.sentinel";
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    {
        std::FILE *f = std::fopen(sentinel.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("precious", f);
        std::fclose(f);
    }
    std::filesystem::create_symlink(sentinel, path + ".tmp");

    ASSERT_TRUE(writePoolFile(path, sampleContents()).ok());

    std::string kept(16, '\0');
    {
        std::FILE *f = std::fopen(sentinel.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        kept.resize(std::fread(&kept[0], 1, kept.size(), f));
        std::fclose(f);
    }
    EXPECT_EQ(kept, "precious");
    EXPECT_TRUE(std::filesystem::is_regular_file(
        std::filesystem::symlink_status(path)));
    Result<PoolFileContents> parsed = readPoolFile(path);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed->unitSeed, sampleContents().unitSeed);

    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    std::remove(sentinel.c_str());
}

// A save killed mid-write leaves its `<path>.tmp.<pid>.<n>`; the next
// save of that pool removes every such file whatever its pid (a
// restarted daemon often reuses its pid), but not the temp file of a
// save still in flight, which holds its flock, nor other names.
TEST(PoolFileFormat, StaleTempsOfCrashedSavesAreReclaimed)
{
    const std::string dir = testing::TempDir() + "pool_file_stale/";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directory(dir);
    const std::string path = dir + "p.dnapool";
    auto plant = [](const std::string &name) {
        std::FILE *f = std::fopen(name.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("half a pool", f);
        std::fclose(f);
    };
    const std::string own =
        path + ".tmp." + std::to_string(::getpid()) + ".7";
    plant(own);
    plant(path + ".tmp.999999.0");
    plant(path + ".tmp.12.345");
    plant(path + ".tmp");
    plant(path + ".tmp.1.2.3");
    plant(dir + "q.dnapool.tmp.1.2");
    const std::string live = path + ".tmp.1.1";
    plant(live);
    const int live_fd = ::open(live.c_str(), O_RDONLY);
    ASSERT_GE(live_fd, 0);
    ASSERT_EQ(::flock(live_fd, LOCK_EX), 0);

    ASSERT_TRUE(writePoolFile(path, sampleContents()).ok());

    std::vector<std::string> left = tempSiblings(path);
    std::sort(left.begin(), left.end());
    EXPECT_EQ(left, (std::vector<std::string>{ "p.dnapool.tmp",
                                               "p.dnapool.tmp.1.1",
                                               "p.dnapool.tmp.1.2.3" }));
    EXPECT_TRUE(std::filesystem::exists(dir + "q.dnapool.tmp.1.2"));
    Result<PoolFileContents> parsed = readPoolFile(path);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();

    // Once its save is gone, the formerly live file is reclaimed too.
    ::close(live_fd);
    ASSERT_TRUE(writePoolFile(path, sampleContents()).ok());
    EXPECT_FALSE(std::filesystem::exists(live));
    std::filesystem::remove_all(dir);
}

// Concurrent saves of one pool each reclaim stale temps while the
// others write theirs: none may take a temp file that is still live,
// so every save succeeds and no temp file survives.
TEST(PoolFileFormat, ConcurrentSavesOfOnePoolAllSucceed)
{
    const std::string path =
        testing::TempDir() + "pool_file_concurrent.dnapool";
    const PoolFileContents contents = sampleContents();
    std::atomic<int> failed{0};
    std::vector<std::thread> savers;
    for (int t = 0; t < 4; ++t)
        savers.emplace_back([&] {
            for (int i = 0; i < 100; ++i)
                failed += writePoolFile(path, contents).ok() ? 0 : 1;
        });
    for (std::thread &t : savers)
        t.join();
    EXPECT_EQ(failed.load(), 0);
    EXPECT_TRUE(tempSiblings(path).empty());
    Result<PoolFileContents> parsed = readPoolFile(path);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    std::remove(path.c_str());
}

// A directory the saver may write but not read (mode 0300) cannot be
// opened for its sync or scanned for stale temps; the save still
// succeeds. Run as an unprivileged user, since root reads anything.
TEST(PoolFileFormat, SaveIntoWriteOnlyDirectorySucceeds)
{
    const std::string dir = testing::TempDir() + "pool_file_wronly";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directory(dir);
    const std::string path = dir + "/p.dnapool";
    const bool root = ::geteuid() == 0;
    const uid_t nobody = 65534;
    if (root) {
        ASSERT_EQ(::chown(dir.c_str(), nobody, nobody), 0);
    }
    ASSERT_EQ(::chmod(dir.c_str(), 0300), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        if (root && (::setgid(nobody) != 0 || ::setuid(nobody) != 0))
            ::_exit(2);
        if (::open(dir.c_str(), O_RDONLY | O_DIRECTORY) >= 0)
            ::_exit(3); // still readable: the test would prove nothing
        ::_exit(writePoolFile(path, sampleContents()).ok() ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_EQ(::chmod(dir.c_str(), 0700), 0);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    Result<PoolFileContents> parsed = readPoolFile(path);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed->unitSeed, sampleContents().unitSeed);
    std::filesystem::remove_all(dir);
}

TEST(PoolFileFormat, SectionNames)
{
    EXPECT_STREQ(poolSectionName(kSectionConfig), "config");
    EXPECT_STREQ(poolSectionName(kSectionManifest), "manifest");
    EXPECT_STREQ(poolSectionName(kSectionUnit), "unit");
    EXPECT_STREQ(poolSectionName(kSectionPools), "pools");
    EXPECT_STREQ(poolSectionName(99), "unknown");
}
