/**
 * @file
 * The durable `.dnapool` store format: versioned, checksummed
 * serialization of one encoding unit and (optionally) its synthesized
 * read pools. This is what Store::save() writes and Store::openFile()
 * reads, and what `dnastore pack` / `dnastore unpack` move around.
 *
 * Layout (all integers little-endian, host-independent):
 *
 *   header (20 bytes)
 *     8   magic "DNAPOOL\0"
 *     4   format version (kPoolFormatVersion)
 *     4   section count
 *     4   CRC-32 over the preceding 16 bytes
 *   section, repeated `section count` times
 *     4   section id (1 config, 2 manifest, 3 unit, 4 pools)
 *     8   payload length in bytes
 *     n   payload
 *     4   CRC-32 over id + length + payload
 *
 * Integrity contract: every section's CRC is verified *before* its
 * payload is parsed, so a single flipped bit anywhere in a section —
 * its internal length fields included — surfaces as DataLoss naming
 * the failing section, never as a misparse. The header CRC covers the
 * version field and is checked first, so a corrupted version byte is
 * also DataLoss ("header"); a *valid* header carrying an unknown
 * version is FailedPrecondition (a future writer's file, not bit
 * rot). Unknown section ids with valid CRCs are skipped, which is how
 * later minor revisions can add sections without breaking v1 readers.
 *
 * Sections 1-3 are mandatory; section 4 (pools) is present only when
 * the store was synthesized at save time. A pool-less file reopens
 * fine: pools regenerate deterministically from the saved unit seed.
 */

#ifndef DNASTORE_API_POOL_FILE_HH
#define DNASTORE_API_POOL_FILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "api/status.hh"
#include "dna/strand.hh"
#include "pipeline/bundle.hh"
#include "pipeline/config.hh"

namespace dnastore {
namespace api {

/**
 * Format version this build writes and the newest it can read.
 * v2 added per-cluster read counts to the pools section (pools may
 * be ragged after aging; v1 pools were rectangular).
 */
inline constexpr uint32_t kPoolFormatVersion = 2;

/** Section ids of the v1 format. */
enum : uint32_t
{
    kSectionConfig = 1,
    kSectionManifest = 2,
    kSectionUnit = 3,
    kSectionPools = 4,
};

/** Stable human name of a section id ("config", "manifest", ...). */
const char *poolSectionName(uint32_t id);

/** Everything a `.dnapool` file carries. */
struct PoolFileContents
{
    /**
     * Resolved unit geometry. Runtime execution knobs (numThreads,
     * packedReadPools) are deliberately NOT stored — they belong to
     * the opening process, not the data — and come back defaulted.
     */
    StorageConfig config;
    LayoutScheme scheme = LayoutScheme::Gini;
    uint64_t unitSeed = 0;

    /** The stored objects (the manifest). */
    FileBundle manifest;

    /** The encoded unit, for open-time integrity cross-checking. */
    size_t payloadBits = 0;
    std::vector<Strand> strands;

    /**
     * Synthesized read pools (present only when saved with pools).
     * Clusters may hold fewer than poolMaxCoverage reads: aging
     * (Store::age) loses whole strands, and a post-aging save
     * persists the ragged pool exactly as it decayed.
     */
    bool hasPools = false;
    size_t poolMaxCoverage = 0;
    std::vector<std::vector<Strand>> pools;
};

/** Serialize to the on-disk byte layout (never fails). */
std::vector<uint8_t> serializePoolFile(const PoolFileContents &contents);

/**
 * Parse the on-disk byte layout. DataLoss names the corrupted or
 * truncated section; FailedPrecondition reports a wrong file type,
 * an unsupported (but intact) format version, or a CRC-valid file
 * whose structure is not ours.
 */
Result<PoolFileContents> parsePoolFile(const std::vector<uint8_t> &bytes);

/**
 * Atomic replacement of @p path by @p bytes: the bytes stream into a
 * fresh sibling `<path>.tmp.<pid>.<n>`, are fsync'd, and rename() over
 * @p path; the directory is then fsync'd, so a crash mid-save never
 * destroys a previously good file and an acknowledged save survives
 * power loss. The temp file is created exclusively and never through
 * a symlink, so a planted `<path>.tmp*` cannot redirect the save and
 * concurrent savers of one file never collide. A save holds an
 * exclusive flock on its temp file until the rename, and first
 * removes the unlocked temp files that crashed saves of the same
 * file left behind.
 *
 * Unavailable on I/O errors before the rename (the temp file is
 * removed and @p path is untouched). The directory sync is skipped
 * when the directory cannot be opened (e.g. write-only permissions)
 * or its filesystem does not sync directories; if the sync itself
 * fails the result is Unavailable although the new file is in place,
 * since it may not survive a crash.
 */
Status replaceFileAtomically(const std::string &path,
                             const std::vector<uint8_t> &bytes);

/** serializePoolFile + replaceFileAtomically. */
Status writePoolFile(const std::string &path,
                     const PoolFileContents &contents);

/** Read + parsePoolFile (NotFound when @p path cannot be opened). */
Result<PoolFileContents> readPoolFile(const std::string &path);

/** One section's byte span within a serialized pool file. */
struct PoolFileSection
{
    uint32_t id = 0;       //!< Section id (0 for the header span).
    size_t begin = 0;      //!< First byte of the span.
    size_t end = 0;        //!< One past the last byte.
    const char *name = ""; //!< poolSectionName(id), or "header".
};

/**
 * Enumerate the header and section spans of a serialized pool file
 * without parsing payloads (the corruption tests flip one byte per
 * span and assert DataLoss names it). FailedPrecondition / DataLoss
 * when even the skeleton cannot be walked.
 */
Result<std::vector<PoolFileSection>> poolFileSections(
    const std::vector<uint8_t> &bytes);

} // namespace api
} // namespace dnastore

#endif // DNASTORE_API_POOL_FILE_HH
