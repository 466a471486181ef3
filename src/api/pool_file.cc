#include "api/pool_file.hh"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "api/options.hh"
#include "util/byteio.hh"
#include "util/crc32.hh"
#include "util/errno_text.hh"

namespace dnastore {
namespace api {

namespace {

const char kMagic[8] = { 'D', 'N', 'A', 'P', 'O', 'O', 'L', '\0' };
constexpr size_t kHeaderBytes = 20;

/** Two-bit pack a strand after a u32 length prefix. */
void
writeStrand(ByteWriter &w, const Strand &s)
{
    w.u32(uint32_t(s.size()));
    uint8_t packed = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        packed |= uint8_t(bitsFromBase(s[i]) << (2 * (i % 4)));
        if (i % 4 == 3) {
            w.u8(packed);
            packed = 0;
        }
    }
    if (s.size() % 4 != 0)
        w.u8(packed);
}

/** Inverse of writeStrand; false when the reader underflows. */
bool
readStrand(ByteReader &r, Strand &out)
{
    const uint32_t len = r.u32();
    const size_t packed_len = (size_t(len) + 3) / 4;
    if (!r.ok() || packed_len > r.remaining())
        return false;
    out.clear();
    out.reserve(len);
    uint8_t packed = 0;
    for (size_t i = 0; i < len; ++i) {
        if (i % 4 == 0)
            packed = r.u8();
        out.push_back(baseFromBits(packed >> (2 * (i % 4))));
    }
    return r.ok();
}

std::vector<uint8_t>
configPayload(const PoolFileContents &c)
{
    ByteWriter w;
    w.u32(c.config.symbolBits);
    w.u64(c.config.rows);
    w.u64(c.config.paritySymbols);
    w.u64(c.config.primerLen);
    w.u64(c.config.primerKey);
    w.u8(uint8_t(c.scheme));
    w.u64(c.unitSeed);
    return w.take();
}

std::vector<uint8_t>
manifestPayload(const FileBundle &bundle)
{
    ByteWriter w;
    w.u32(uint32_t(bundle.fileCount()));
    for (const auto &f : bundle.files()) {
        w.u8(uint8_t(f.name.size()));
        w.str(f.name);
        w.u64(f.data.size());
        w.bytes(f.data);
    }
    return w.take();
}

std::vector<uint8_t>
unitPayload(const PoolFileContents &c)
{
    ByteWriter w;
    w.u64(c.payloadBits);
    w.u64(c.strands.size());
    for (const auto &s : c.strands)
        writeStrand(w, s);
    return w.take();
}

std::vector<uint8_t>
poolsPayload(const PoolFileContents &c)
{
    ByteWriter w;
    w.u64(c.pools.size());
    w.u64(c.poolMaxCoverage);
    // Pools may be ragged (aging loses whole reads), so each cluster
    // carries its own read count (v2 of the format).
    for (const auto &cluster : c.pools) {
        w.u32(uint32_t(cluster.size()));
        for (const auto &read : cluster)
            writeStrand(w, read);
    }
    return w.take();
}

void
appendSection(ByteWriter &out, uint32_t id,
              const std::vector<uint8_t> &payload)
{
    ByteWriter body;
    body.u32(id);
    body.u64(payload.size());
    body.bytes(payload);
    const uint32_t crc = crc32(body.data());
    out.bytes(body.data());
    out.u32(crc);
}

Status
malformed(uint32_t id)
{
    return Status::failedPrecondition(formatMessage(
        "pool file '%s' section is malformed (checksum valid, "
        "structure is not ours)",
        poolSectionName(id)));
}

Status
corrupted(const char *what)
{
    return Status::dataLoss(formatMessage(
        "pool file corrupted: '%s' section failed its checksum "
        "(truncation or bit rot)",
        what));
}

Status
parseConfig(const std::vector<uint8_t> &payload, PoolFileContents &c)
{
    ByteReader r(payload);
    c.config = StorageConfig();
    c.config.symbolBits = unsigned(r.u32());
    c.config.rows = size_t(r.u64());
    c.config.paritySymbols = size_t(r.u64());
    c.config.primerLen = size_t(r.u64());
    c.config.primerKey = r.u64();
    const uint8_t scheme = r.u8();
    c.unitSeed = r.u64();
    if (!r.ok() || r.remaining() != 0)
        return malformed(kSectionConfig);
    if (scheme > uint8_t(LayoutScheme::DnaMapper))
        return Status::failedPrecondition(formatMessage(
            "pool file names unknown layout scheme id %u", scheme));
    c.scheme = LayoutScheme(scheme);
    if (const char *err = c.config.check())
        return Status::failedPrecondition(formatMessage(
            "pool file geometry is invalid: %s", err));
    return Status();
}

Status
parseManifest(const std::vector<uint8_t> &payload, PoolFileContents &c)
{
    ByteReader r(payload);
    const uint32_t count = r.u32();
    c.manifest = FileBundle();
    for (uint32_t i = 0; i < count; ++i) {
        const uint8_t name_len = r.u8();
        std::string name = r.str(name_len);
        const uint64_t data_len = r.u64();
        if (!r.ok() || data_len > r.remaining())
            return malformed(kSectionManifest);
        std::vector<uint8_t> data = r.vec(size_t(data_len));
        try {
            c.manifest.add(name, std::move(data));
        } catch (const std::invalid_argument &) {
            return malformed(kSectionManifest);
        }
    }
    if (!r.ok() || r.remaining() != 0)
        return malformed(kSectionManifest);
    return Status();
}

Status
parseUnit(const std::vector<uint8_t> &payload, PoolFileContents &c)
{
    ByteReader r(payload);
    c.payloadBits = size_t(r.u64());
    const uint64_t strand_count = r.u64();
    if (!r.ok() || strand_count > r.remaining())
        return malformed(kSectionUnit);
    c.strands.assign(size_t(strand_count), Strand());
    for (auto &s : c.strands) {
        if (!readStrand(r, s))
            return malformed(kSectionUnit);
    }
    if (r.remaining() != 0)
        return malformed(kSectionUnit);
    return Status();
}

Status
parsePools(const std::vector<uint8_t> &payload, PoolFileContents &c)
{
    ByteReader r(payload);
    const uint64_t cluster_count = r.u64();
    const uint64_t max_coverage = r.u64();
    if (!r.ok() || cluster_count > r.remaining() ||
        max_coverage > r.remaining())
        return malformed(kSectionPools);
    c.pools.assign(size_t(cluster_count), {});
    for (auto &cluster : c.pools) {
        const uint32_t reads = r.u32();
        if (!r.ok() || reads > max_coverage ||
            reads > r.remaining())
            return malformed(kSectionPools);
        cluster.assign(size_t(reads), Strand());
        for (auto &read : cluster) {
            if (!readStrand(r, read))
                return malformed(kSectionPools);
        }
    }
    if (r.remaining() != 0)
        return malformed(kSectionPools);
    c.hasPools = true;
    c.poolMaxCoverage = size_t(max_coverage);
    return Status();
}

/**
 * Walk the section skeleton: ids, payload spans, CRC verdicts. The
 * shared core of parsePoolFile and poolFileSections, so a file the
 * parser rejects is rejected identically by the span enumerator.
 */
Status
walkSections(const std::vector<uint8_t> &bytes,
             std::vector<PoolFileSection> &sections)
{
    // Magic first: a foreign file should read as "not ours", not as a
    // corrupted pool file, even when it is shorter than our header.
    if (bytes.size() >= sizeof(kMagic) &&
        std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        return Status::failedPrecondition(
            "not a dnastore pool file (bad magic)");
    if (bytes.size() < kHeaderBytes)
        return corrupted("header");
    ByteReader header(bytes.data(), kHeaderBytes);
    header.skip(sizeof(kMagic));
    const uint32_t version = header.u32();
    const uint32_t section_count = header.u32();
    const uint32_t header_crc = header.u32();
    // The CRC covers the version field and is checked before it: a
    // flipped version byte is bit rot (DataLoss), not a future file.
    if (crc32(bytes.data(), 16) != header_crc)
        return corrupted("header");
    if (version != kPoolFormatVersion)
        return Status::failedPrecondition(formatMessage(
            "pool file format version %u is not supported by this "
            "build (supported: %u)",
            version, kPoolFormatVersion));
    sections.push_back({ 0, 0, kHeaderBytes, "header" });

    ByteReader r(bytes.data(), bytes.size());
    r.skip(kHeaderBytes);
    for (uint32_t i = 0; i < section_count; ++i) {
        const size_t begin = r.pos();
        const uint32_t id = r.u32();
        const uint64_t len = r.u64();
        // Bound before touching the payload: a corrupted length must
        // fail the CRC of what is actually there, not walk off the
        // end. remaining() must still cover payload + trailing CRC.
        if (!r.ok() || len > r.remaining() ||
            r.remaining() - size_t(len) < 4) {
            return corrupted(r.ok() ? poolSectionName(id) : "header");
        }
        r.skip(size_t(len));
        const uint32_t stored_crc = r.u32();
        if (crc32(bytes.data() + begin, 12 + size_t(len)) != stored_crc)
            return corrupted(poolSectionName(id));
        sections.push_back(
            { id, begin, r.pos(), poolSectionName(id) });
    }
    if (r.remaining() != 0)
        return Status::dataLoss(formatMessage(
            "pool file has %zu trailing bytes after the last section",
            r.remaining()));
    return Status();
}

} // namespace

const char *
poolSectionName(uint32_t id)
{
    switch (id) {
    case kSectionConfig:
        return "config";
    case kSectionManifest:
        return "manifest";
    case kSectionUnit:
        return "unit";
    case kSectionPools:
        return "pools";
    default:
        return "unknown";
    }
}

std::vector<uint8_t>
serializePoolFile(const PoolFileContents &contents)
{
    ByteWriter header;
    header.bytes(reinterpret_cast<const uint8_t *>(kMagic),
                 sizeof(kMagic));
    header.u32(kPoolFormatVersion);
    const uint32_t section_count = contents.hasPools ? 4 : 3;
    header.u32(section_count);
    header.u32(crc32(header.data()));

    ByteWriter out;
    out.bytes(header.data());
    appendSection(out, kSectionConfig, configPayload(contents));
    appendSection(out, kSectionManifest,
                  manifestPayload(contents.manifest));
    appendSection(out, kSectionUnit, unitPayload(contents));
    if (contents.hasPools)
        appendSection(out, kSectionPools, poolsPayload(contents));
    return out.take();
}

Result<PoolFileContents>
parsePoolFile(const std::vector<uint8_t> &bytes)
{
    std::vector<PoolFileSection> sections;
    Status status = walkSections(bytes, sections);
    if (!status.ok())
        return status;

    PoolFileContents out;
    bool seen[5] = { false, false, false, false, false };
    for (const PoolFileSection &s : sections) {
        if (s.id == 0)
            continue; // Header span.
        if (s.id <= kSectionPools) {
            if (seen[s.id])
                return Status::failedPrecondition(formatMessage(
                    "pool file repeats its '%s' section", s.name));
            seen[s.id] = true;
        }
        // CRC already verified by walkSections; payload starts after
        // the 12-byte id+length prefix and stops before the CRC.
        const std::vector<uint8_t> payload(
            bytes.begin() + long(s.begin) + 12,
            bytes.begin() + long(s.end) - 4);
        switch (s.id) {
        case kSectionConfig:
            status = parseConfig(payload, out);
            break;
        case kSectionManifest:
            status = parseManifest(payload, out);
            break;
        case kSectionUnit:
            status = parseUnit(payload, out);
            break;
        case kSectionPools:
            status = parsePools(payload, out);
            break;
        default:
            break; // Unknown id, valid CRC: a later revision's
                   // optional section. Skip it.
        }
        if (!status.ok())
            return status;
    }
    for (uint32_t id : { uint32_t(kSectionConfig),
                         uint32_t(kSectionManifest),
                         uint32_t(kSectionUnit) }) {
        if (!seen[id])
            return Status::failedPrecondition(formatMessage(
                "pool file is missing its mandatory '%s' section",
                poolSectionName(id)));
    }
    if (out.hasPools && out.pools.size() != out.strands.size())
        return Status::failedPrecondition(
            "pool file's pools do not match its unit (cluster count "
            "!= strand count)");
    return out;
}

namespace {

/** With the pid, names every save's temp file uniquely. */
std::atomic<uint64_t> saveCounter{0};

/** Temp names a save tries while each one it picks is taken. */
constexpr int kTempAttempts = 100;

/** The directory holding @p path. */
std::string
parentDir(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? "."
        : slash == 0                  ? "/"
                                      : path.substr(0, slash);
}

/** True for a temp-name tail `<digits>.<digits>`. */
bool
isTempTail(const char *s)
{
    int fields = 0;
    while (true) {
        if (!std::isdigit(static_cast<unsigned char>(*s)))
            return false;
        while (std::isdigit(static_cast<unsigned char>(*s)))
            ++s;
        ++fields;
        if (*s == '\0')
            return fields == 2;
        if (*s++ != '.' || fields == 2)
            return false;
    }
}

/** True when @p fd is still the file named @p name. */
bool
namesFile(const std::string &name, int fd)
{
    struct stat by_fd, by_name;
    return ::fstat(fd, &by_fd) == 0 &&
        ::lstat(name.c_str(), &by_name) == 0 &&
        by_fd.st_dev == by_name.st_dev && by_fd.st_ino == by_name.st_ino;
}

/**
 * Remove the temp siblings `<path>.tmp.<pid>.<n>` of saves that died
 * mid-write. A live save holds an exclusive flock on its temp file
 * until it has renamed it away, so a regular file whose lock can be
 * taken is abandoned. Best-effort: an unreadable directory or a
 * filesystem without flock reclaims nothing.
 */
void
removeStaleTemps(const std::string &path)
{
    const std::string dir = parentDir(path);
    const size_t slash = path.find_last_of('/');
    const std::string prefix =
        path.substr(slash == std::string::npos ? 0 : slash + 1) + ".tmp.";
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return;
    while (const dirent *entry = ::readdir(d)) {
        if (std::strncmp(entry->d_name, prefix.c_str(), prefix.size()) != 0 ||
            !isTempTail(entry->d_name + prefix.size()))
            continue;
        const std::string name = dir + "/" + entry->d_name;
        const int fd = ::open(name.c_str(),
                              O_RDONLY | O_NOFOLLOW | O_NONBLOCK | O_CLOEXEC);
        if (fd < 0)
            continue;
        struct stat st;
        if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) &&
            ::flock(fd, LOCK_EX | LOCK_NB) == 0 && namesFile(name, fd))
            ::unlink(name.c_str());
        ::close(fd);
    }
    ::closedir(d);
}

/**
 * Mark the new temp file @p fd named @p name live with an exclusive
 * flock. False when a concurrent reclaim removed the name before the
 * lock was taken; the save then picks another name.
 */
bool
lockLive(const std::string &name, int fd)
{
    while (::flock(fd, LOCK_EX) != 0) {
        if (errno != EINTR)
            return true; // no flock here: nothing reclaims either
    }
    return namesFile(name, fd);
}

/**
 * fsync the directory holding @p path, making a rename durable. A
 * directory that cannot be opened (no read permission) or whose
 * filesystem does not sync directories is skipped: the rename has
 * taken effect. False only when the sync itself failed.
 */
bool
syncParentDir(const std::string &path)
{
    const int fd =
        ::open(parentDir(path).c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        return true;
    const bool synced =
        ::fsync(fd) == 0 || errno == EINVAL || errno == EROFS;
    ::close(fd);
    return synced;
}

} // namespace

Status
replaceFileAtomically(const std::string &path,
                      const std::vector<uint8_t> &bytes)
{
    // Crash-safe replacement: stream into a fresh sibling temp file,
    // flush it to stable storage, rename() it over the target, then
    // sync the directory. A crash or power loss mid-save leaves any
    // previous good file untouched (at worst plus a stale temp
    // sibling, which the next save of the file removes). The temp
    // name is unique per save and created with O_EXCL | O_NOFOLLOW,
    // so a planted file or symlink is never written through, and
    // concurrent savers of one file never share (or remove) each
    // other's temp file.
    removeStaleTemps(path);
    std::string tmp;
    int fd = -1;
    for (int attempt = 0; fd < 0; ++attempt) {
        tmp = formatMessage(
            "%s.tmp.%ld.%llu", path.c_str(), long(::getpid()),
            static_cast<unsigned long long>(saveCounter.fetch_add(1)));
        fd = ::open(tmp.c_str(),
                    O_WRONLY | O_CREAT | O_EXCL | O_NOFOLLOW | O_CLOEXEC,
                    0666);
        if (fd >= 0 && !lockLive(tmp, fd)) {
            ::close(fd);
            fd = -1;
            errno = EEXIST; // reclaimed before it was locked
        }
        if (fd < 0 && (errno != EEXIST || attempt + 1 == kTempAttempts))
            return Status::unavailable(
                formatMessage("cannot create '%s' for writing: %s",
                              tmp.c_str(), errnoText(errno).c_str()));
    }
    size_t written = 0;
    while (written < bytes.size()) {
        const ssize_t k =
            ::write(fd, bytes.data() + written, bytes.size() - written);
        if (k < 0 && errno == EINTR)
            continue;
        if (k <= 0)
            break;
        written += size_t(k);
    }
    // The temp file stays open, and so locked live, until it has been
    // renamed away.
    if (written != bytes.size() || ::fsync(fd) != 0) {
        ::unlink(tmp.c_str());
        ::close(fd);
        return Status::unavailable(formatMessage(
            "write to '%s' failed (%zu of %zu bytes durable)",
            tmp.c_str(), written, bytes.size()));
    }
    const bool renamed = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!renamed)
        ::unlink(tmp.c_str());
    ::close(fd);
    if (!renamed)
        return Status::unavailable(formatMessage(
            "cannot move '%s' into place as '%s'", tmp.c_str(),
            path.c_str()));
    if (!syncParentDir(path))
        return Status::unavailable(formatMessage(
            "'%s' is in place but its directory sync failed, so the save "
            "may not survive a crash: %s",
            path.c_str(), errnoText(errno).c_str()));
    return Status();
}

Status
writePoolFile(const std::string &path, const PoolFileContents &contents)
{
    return replaceFileAtomically(path, serializePoolFile(contents));
}

Result<PoolFileContents>
readPoolFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return Status::notFound(formatMessage(
            "cannot open pool file '%s'", path.c_str()));
    std::vector<uint8_t> bytes;
    uint8_t buf[1 << 16];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error)
        return Status::unavailable(formatMessage(
            "I/O error reading pool file '%s'", path.c_str()));
    return parsePoolFile(bytes);
}

Result<std::vector<PoolFileSection>>
poolFileSections(const std::vector<uint8_t> &bytes)
{
    std::vector<PoolFileSection> sections;
    Status status = walkSections(bytes, sections);
    if (!status.ok())
        return status;
    return sections;
}

} // namespace api
} // namespace dnastore
