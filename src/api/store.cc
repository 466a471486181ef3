#include "api/store.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "api/pool_file.hh"
#include "dna/strand.hh"
#include "pipeline/simulator.hh"
#include "util/parallel.hh"

namespace dnastore {
namespace api {

const char *
version()
{
    return "0.7.0";
}

std::string
EncodedArtifact::text() const
{
    std::string out = header;
    out += '\n';
    for (const auto &strand : strands) {
        out += strand;
        out += '\n';
    }
    return out;
}

namespace {

/** A Future whose get() yields @p status (a rejected job). */
Future<Result<TrialSeries>>
failedTrials(Status status)
{
    return Future<Result<TrialSeries>>(
        [status]() -> Result<TrialSeries> { return status; });
}

Retrieval
mapRetrieval(RetrievalResult &&result)
{
    Retrieval out;
    out.coverage = result.coverage;
    out.exact = result.exactPayload;
    out.decoded = result.decoded.bundleOk;
    out.objects = std::move(result.decoded.bundle);
    out.correctedErrors = result.decoded.stats.totalCorrected();
    out.erasedColumns = result.decoded.stats.erasedColumns;
    out.failedCodewords = result.decoded.stats.failedCodewords;
    out.indexFaults = result.decoded.stats.indexFaults;
    out.errorsPerCodeword =
        std::move(result.decoded.stats.errorsPerCodeword);
    return out;
}

/** What every Status or Result method answers on a moved-from Store. */
Status
movedFromStore()
{
    return Status::unavailable(
        "the store was moved from or torn down; nothing can be "
        "served from it");
}

std::string
unitHeader(const StorageConfig &cfg, LayoutScheme scheme)
{
    std::string header = formatMessage(
        "#dnastore m=%u rows=%zu parity=%zu primer=%zu scheme=%s",
        cfg.symbolBits, cfg.rows, cfg.paritySymbols, cfg.primerLen,
        layoutSchemeName(scheme));
    // The primer pair derives from primerKey; a non-default key must
    // survive the artifact or decodeUnitText would search for the wrong
    // primers. Omitted for the default so pre-existing unit files
    // (which never carried a key) stay byte-identical.
    if (cfg.primerKey != 1)
        header += formatMessage(" key=%llu",
                                (unsigned long long)cfg.primerKey);
    return header;
}

} // namespace

Result<std::vector<uint8_t>>
objectFrom(const Retrieval &retrieval, const std::string &name)
{
    if (!retrieval.decoded)
        return Status::dataLoss(formatMessage(
            "the channel defeated the decoder (%zu codewords failed, "
            "%zu columns erased); the directory is unrecoverable",
            retrieval.failedCodewords, retrieval.erasedColumns));
    if (!retrieval.exact)
        return Status::dataLoss(formatMessage(
            "the unit decoded with errors (%zu codewords failed); "
            "retrieveAll() exposes the partial recovery",
            retrieval.failedCodewords));
    const NamedFile *file = retrieval.objects.find(name);
    if (file == nullptr)
        return Status::dataLoss(formatMessage(
            "object '%s' missing from the recovered directory",
            name.c_str()));
    return file->data;
}

Result<DecodedObjects>
decodeUnitText(const std::string &text, size_t threads)
{
    // Parse the self-describing header. Unit files may carry CRLF line
    // endings (they travel through mail and Windows editors); the
    // parser strips the '\r' so the trailing field never absorbs it.
    size_t eol = text.find('\n');
    std::string header =
        text.substr(0, eol == std::string::npos ? text.size() : eol);
    if (!header.empty() && header.back() == '\r')
        header.pop_back();
    StorageConfig cfg;
    char scheme_name[32] = "gini";
    unsigned m = 0;
    size_t rows = 0, parity = 0, primer = 0;
    int consumed = 0;
    if (std::sscanf(header.c_str(),
                    "#dnastore m=%u rows=%zu parity=%zu primer=%zu "
                    "scheme=%31s%n",
                    &m, &rows, &parity, &primer, scheme_name,
                    &consumed) != 5)
        return Status::failedPrecondition("bad unit header");
    cfg.symbolBits = m;
    cfg.rows = rows;
    cfg.paritySymbols = parity;
    cfg.primerLen = primer;
    cfg.numThreads = threads;
    // Optional key= field (written only for non-default primer keys;
    // older unit files never carry it). The primer pair derives from
    // this key, so a value that does not parse exactly must be an
    // error — silently decoding with key 0 would search for the wrong
    // primers and mis-frame every strand.
    // Editors and copy-paste leave stray blanks around the header; any
    // run of spaces/tabs before the field or at end of line is
    // framing, not a trailing field.
    std::string rest = header.substr(size_t(consumed));
    const size_t first = rest.find_first_not_of(" \t");
    const size_t last = rest.find_last_not_of(" \t");
    rest = first == std::string::npos
        ? std::string()
        : rest.substr(first, last - first + 1);
    if (!rest.empty()) {
        if (rest.compare(0, 4, "key=") != 0)
            return Status::failedPrecondition(formatMessage(
                "unrecognized trailing field in unit header: '%s'",
                rest.c_str()));
        const char *digits = rest.c_str() + 4;
        if (!std::isdigit(static_cast<unsigned char>(*digits)))
            return Status::failedPrecondition(formatMessage(
                "malformed key= field in unit header: '%s' "
                "is not an unsigned integer",
                digits));
        errno = 0;
        char *end = nullptr;
        unsigned long long key = std::strtoull(digits, &end, 10);
        if (errno == ERANGE || *end != '\0')
            return Status::failedPrecondition(formatMessage(
                "malformed key= field in unit header: '%s' "
                "is not an unsigned 64-bit integer",
                digits));
        cfg.primerKey = key;
    }
    bool scheme_ok = true;
    LayoutScheme scheme = layoutSchemeFromName(scheme_name, &scheme_ok);
    if (!scheme_ok)
        return Status::failedPrecondition(formatMessage(
            "unknown scheme '%s' in unit header", scheme_name));
    if (const char *err = cfg.check())
        return Status::failedPrecondition(err);

    try {
        // Each line is one read; a noiseless unit file makes each line
        // its own single-read cluster.
        std::vector<std::vector<Strand>> clusters;
        size_t line_no = 1;
        size_t pos = eol == std::string::npos ? text.size() : eol + 1;
        while (pos < text.size()) {
            size_t next = text.find('\n', pos);
            if (next == std::string::npos)
                next = text.size();
            ++line_no;
            size_t len = next - pos;
            // Tolerate CRLF: the '\r' is line framing, not a (bogus)
            // base.
            if (len > 0 && text[pos + len - 1] == '\r')
                --len;
            if (len > 0 && text[pos] != '#') {
                try {
                    clusters.push_back(
                        { strandFromString(text.substr(pos, len)) });
                } catch (const std::invalid_argument &) {
                    // A non-ACGT character is a malformed artifact,
                    // not an internal failure.
                    return Status::failedPrecondition(formatMessage(
                        "unit file line %zu is not a DNA strand "
                        "(non-ACGT character)",
                        line_no));
                }
            }
            pos = next + 1;
        }
        UnitDecoder decoder(cfg, scheme);
        DecodedUnit unit = decoder.decode(clusters);
        if (!unit.bundleOk)
            return Status::dataLoss("decoding failed (unrecoverable unit)");
        DecodedObjects out;
        out.files = unit.bundle.files();
        out.exact = unit.exact;
        out.correctedErrors = unit.stats.totalCorrected();
        out.erasedColumns = unit.stats.erasedColumns;
        out.failedCodewords = unit.stats.failedCodewords;
        return out;
    } catch (const std::exception &e) {
        return Status::internal(e.what());
    }
}

/** Everything behind the façade. */
struct Store::Rep
{
    StoreOptions options;
    ChannelOptions channel;
    FileBundle bundle;
    /**
     * Shared so a pending trial Future keeps its simulator snapshot
     * alive even when a later put()+retrieve rebuilds the unit: the
     * Future captures the shared_ptr, the Rep just swaps in a new one.
     */
    std::shared_ptr<StorageSimulator> sim;

    /** sim holds an encoded unit (prepare() at least). */
    bool prepared = false;

    /** sim also holds read pools (store()). */
    bool synthesized = false;

    /** Objects changed since sim was built. */
    bool dirty = true;

    /** Geometry sim was built with (autoGeometry re-resolves). */
    StorageConfig resolvedCfg;

    /**
     * Memoized configured-coverage retrieval: deterministic for a
     * fixed channel while the unit is clean, so N get() calls cost
     * one decode pass, not N. Invalidated by put(), rebuilds, and
     * every pool mutation (age(), a repairing scrub()).
     */
    std::shared_ptr<const Retrieval> lastRetrieval;

    /** openFile(OpenMode::ReadOnly): put() is FailedPrecondition. */
    bool readOnly = false;

    /**
     * Slack auto-geometry keeps between the payload and the preset's
     * capacity (the directory grows between check and encode).
     */
    static constexpr size_t kAutoSlackBits = 1024;

    /**
     * The geometry a payload of @p serialized_bits would resolve to —
     * the ONE capacity source of truth: resolveConfig() asks it about
     * the stored objects, put()'s admission control asks it about the
     * candidate bundle, so the two can never disagree about what
     * fits.
     */
    Result<StorageConfig>
    resolveConfigFor(size_t serialized_bits) const
    {
        if (!options.autoGeometry()) {
            StorageConfig cfg = options.config();
            if (serialized_bits > cfg.capacityBits())
                return Status::capacityExceeded(formatMessage(
                    "payload (%zu bytes serialized) exceeds the unit "
                    "capacity (%zu bytes)",
                    serialized_bits / 8, cfg.capacityBytes()));
            return cfg;
        }
        // The CLI's behavior: smallest preset that fits, with slack
        // for the directory growing between check and encode.
        for (StorageConfig cfg : { StorageConfig::tinyTest(),
                                   StorageConfig::benchScale() }) {
            cfg.numThreads = options.config().numThreads;
            cfg.packedReadPools = options.config().packedReadPools;
            if (serialized_bits + kAutoSlackBits <= cfg.capacityBits())
                return cfg;
        }
        return Status::capacityExceeded(formatMessage(
            "payload too large for one unit (max ~%zu bytes)",
            StorageConfig::benchScale().capacityBytes()));
    }

    Result<StorageConfig>
    resolveConfig() const
    {
        return resolveConfigFor(bundle.serializedBits());
    }

    /** Encode (and pool) the unit; @p with_pools = store() vs prepare(). */
    Status
    build(bool with_pools)
    {
        Result<StorageConfig> cfg = resolveConfig();
        if (!cfg.ok())
            return cfg.status();
        try {
            sim = std::make_shared<StorageSimulator>(
                *cfg, options.layout(), channel.channelProfile(),
                options.unitSeed());
            if (with_pools)
                sim->store(bundle, channel.maxCoverage());
            else
                sim->prepare(bundle);
        } catch (const std::exception &e) {
            // A half-built unit must not satisfy a later
            // ensure*(): drop the simulator AND the clean flags so
            // the next call rebuilds from scratch.
            sim.reset();
            prepared = false;
            synthesized = false;
            dirty = true;
            lastRetrieval.reset();
            return Status::internal(e.what());
        }
        resolvedCfg = *cfg;
        prepared = true;
        synthesized = with_pools;
        dirty = false;
        lastRetrieval.reset();
        return Status();
    }

    Status
    ensureSynthesized()
    {
        if (synthesized && !dirty)
            return Status();
        return build(/*with_pools=*/true);
    }

    Status
    ensurePrepared()
    {
        if (prepared && !dirty)
            return Status();
        return build(/*with_pools=*/false);
    }
};

Store::Store(std::unique_ptr<Rep> rep) : rep_(std::move(rep)) {}
Store::Store(Store &&) noexcept = default;
Store &Store::operator=(Store &&) noexcept = default;
Store::~Store() = default;

Result<Store>
Store::open(const StoreOptions &options, const ChannelOptions &channel)
{
    Status status = options.validate();
    if (!status.ok())
        return status;
    status = channel.validate();
    if (!status.ok())
        return status;
    auto rep = std::make_unique<Rep>();
    rep->options = options;
    rep->channel = channel;
    return Store(std::move(rep));
}

Result<Store>
Store::openFile(const std::string &path, const ChannelOptions &channel,
                const OpenOptions &open_options)
{
    Result<PoolFileContents> contents = readPoolFile(path);
    if (!contents.ok())
        return contents.status();
    return openContents(std::move(*contents), channel, open_options,
                        path);
}

Result<Store>
Store::openContents(PoolFileContents file, const ChannelOptions &channel,
                    const OpenOptions &open_options,
                    const std::string &origin)
{
    Status status = channel.validate();
    if (!status.ok())
        return status;

    // The saved pools bound what this store can retrieve at; a
    // channel that would draw deeper must say so now, not DataLoss
    // later.
    if (file.hasPools && channel.maxCoverage() > file.poolMaxCoverage)
        return Status::failedPrecondition(formatMessage(
            "the channel needs pool depth %zu but '%s' holds pools "
            "of depth %zu (reopen with a shallower channel, or "
            "re-save with a deeper one)",
            channel.maxCoverage(), origin.c_str(),
            file.poolMaxCoverage));

    // Runtime knobs come from the opening process, never the file.
    StorageConfig cfg = file.config;
    cfg.numThreads = open_options.threads;
    cfg.packedReadPools = open_options.packedReadPools;

    StoreOptions store_options;
    store_options.config(cfg)
        .layout(file.scheme)
        .unitSeed(file.unitSeed);
    status = store_options.validate();
    if (!status.ok())
        return status;

    auto rep = std::make_unique<Rep>();
    rep->options = store_options;
    rep->channel = channel;
    rep->bundle = file.manifest;
    rep->readOnly = open_options.mode == OpenMode::ReadOnly;
    try {
        rep->sim = std::make_shared<StorageSimulator>(
            cfg, file.scheme, channel.channelProfile(),
            file.unitSeed);
        if (file.hasPools)
            rep->sim->restore(file.manifest, file.pools,
                              file.poolMaxCoverage);
        else
            rep->sim->prepare(file.manifest);
    } catch (const std::invalid_argument &e) {
        return Status::failedPrecondition(formatMessage(
            "'%s' cannot be restored: %s", origin.c_str(), e.what()));
    } catch (const std::exception &e) {
        return Status::internal(e.what());
    }
    // Integrity cross-check: every section already passed its
    // checksum, but the sections must also agree with EACH OTHER —
    // re-encoding the saved manifest under the saved geometry must
    // reproduce the saved unit exactly, or the file pairs a manifest
    // with somebody else's strands.
    if (rep->sim->unit().payloadBits != file.payloadBits ||
        rep->sim->unit().strands != file.strands)
        return Status::dataLoss(formatMessage(
            "'%s': the unit section does not match the manifest's "
            "re-encoding (sections are individually intact but "
            "mutually inconsistent)",
            origin.c_str()));
    rep->resolvedCfg = cfg;
    rep->prepared = true;
    rep->synthesized = file.hasPools;
    rep->dirty = false;
    return Store(std::move(rep));
}

Status
Store::save(const std::string &path, bool with_pools)
{
    if (!rep_)
        return movedFromStore();
    Status status = with_pools ? rep_->ensureSynthesized()
                               : rep_->ensurePrepared();
    if (!status.ok())
        return status;
    PoolFileContents contents;
    contents.config = rep_->resolvedCfg;
    contents.scheme = rep_->options.layout();
    contents.unitSeed = rep_->options.unitSeed();
    contents.manifest = rep_->bundle;
    contents.payloadBits = rep_->sim->unit().payloadBits;
    contents.strands = rep_->sim->unit().strands;
    if (with_pools && rep_->sim->hasPool()) {
        contents.hasPools = true;
        contents.poolMaxCoverage = rep_->sim->poolCoverage();
        try {
            contents.pools = rep_->sim->snapshotPool();
        } catch (const std::exception &e) {
            return Status::internal(e.what());
        }
    }
    return writePoolFile(path, contents);
}

bool
Store::readOnly() const
{
    return rep_ && rep_->readOnly;
}

Status
Store::put(const std::string &name, std::vector<uint8_t> data)
{
    if (!rep_)
        return movedFromStore();
    if (rep_->readOnly)
        return Status::failedPrecondition(
            "the store was opened read-only; put() is not available");
    if (const char *err = FileBundle::checkName(name))
        return Status::invalidArgument(err);
    if (rep_->bundle.find(name))
        return Status::alreadyExists(formatMessage(
            "an object named '%s' is already stored", name.c_str()));
    // The directory's fixed-width fields cap object size and count;
    // pre-check so the no-throw boundary never sees add() throw.
    if (const char *err =
            FileBundle::checkAdd(rep_->bundle.fileCount(), data.size()))
        return Status::invalidArgument(err);

    // Admission control: reject an object that cannot fit the unit
    // now, instead of failing synthesis later. Directory cost per
    // object: 1 length byte + name + u32 size. The verdict comes from
    // resolveConfigFor — the same source of truth synthesis resolves
    // against — so admission and encoding can never disagree.
    const size_t candidate_bits = rep_->bundle.serializedBits() +
        (1 + name.size() + 4 + data.size()) * 8;
    Result<StorageConfig> cfg = rep_->resolveConfigFor(candidate_bits);
    if (!cfg.ok())
        return Status::capacityExceeded(formatMessage(
            "object '%s' (%zu bytes) would overflow the unit: %s",
            name.c_str(), data.size(),
            cfg.status().message().c_str()));

    rep_->bundle.add(name, std::move(data));
    rep_->dirty = true;
    rep_->lastRetrieval.reset();
    return Status();
}

std::vector<ObjectInfo>
Store::list() const
{
    std::vector<ObjectInfo> out;
    if (!rep_)
        return out;
    out.reserve(rep_->bundle.fileCount());
    for (const auto &file : rep_->bundle.files())
        out.push_back({ file.name, file.data.size() });
    return out;
}

bool
Store::contains(const std::string &name) const
{
    return rep_ && rep_->bundle.find(name) != nullptr;
}

size_t
Store::objectCount() const
{
    return rep_ ? rep_->bundle.fileCount() : 0;
}

size_t
Store::totalBytes() const
{
    return rep_ ? rep_->bundle.totalBytes() : 0;
}

Status
Store::synthesize()
{
    if (!rep_)
        return movedFromStore();
    return rep_->build(/*with_pools=*/true);
}

Result<std::shared_ptr<const Retrieval>>
Store::retrieveShared()
{
    if (!rep_)
        return movedFromStore();
    // The pool-backed retrieval cannot combine gamma coverage with
    // the real clusterer (retrieveClustered reads fixed pool
    // prefixes); per-trial read generation (TrialJob) can.
    if (rep_->channel.hasGamma() && rep_->channel.hasCluster())
        return Status::invalidArgument(
            "cluster and gamma-mean/gamma-shape cannot be combined");
    Status status = rep_->ensureSynthesized();
    if (!status.ok())
        return status;
    // Clean store + fixed channel = deterministic result; serve the
    // memoized pass (ensureSynthesized left it in place; age() and
    // a repairing scrub() drop it).
    if (rep_->lastRetrieval)
        return rep_->lastRetrieval;
    const ChannelOptions &chan = rep_->channel;
    try {
        Retrieval out;
        if (chan.hasGamma()) {
            out = mapRetrieval(rep_->sim->retrieveGamma(
                chan.gammaMean(), chan.gammaShape(),
                chan.drawSeed()));
        } else if (chan.hasCluster()) {
            ClusteredRetrievalResult clustered =
                rep_->sim->retrieveClustered(chan.fixedCoverage(),
                                             chan.clusterParams());
            out = mapRetrieval(std::move(clustered.result));
            out.clustered = true;
            out.clustersFound = clustered.clustersFound;
            out.precision = clustered.quality.precision;
            out.recall = clustered.quality.recall;
        } else {
            out = mapRetrieval(
                rep_->sim->retrieve(chan.fixedCoverage()));
        }
        rep_->lastRetrieval =
            std::make_shared<const Retrieval>(std::move(out));
        return rep_->lastRetrieval;
    } catch (const std::exception &e) {
        return Status::internal(e.what());
    }
}

Result<Retrieval>
Store::retrieveAll()
{
    Result<std::shared_ptr<const Retrieval>> shared = retrieveShared();
    if (!shared.ok())
        return shared.status();
    return **shared;
}

Result<Retrieval>
Store::retrieveAt(size_t coverage)
{
    if (!rep_)
        return movedFromStore();
    if (const char *err = CoverageModel::checkFixed(coverage))
        return Status::invalidArgument(err);
    if (coverage > rep_->channel.maxCoverage())
        return Status::invalidArgument(formatMessage(
            "coverage %zu exceeds the synthesized pool depth %zu",
            coverage, rep_->channel.maxCoverage()));
    Status status = rep_->ensureSynthesized();
    if (!status.ok())
        return status;
    try {
        return mapRetrieval(rep_->sim->retrieve(coverage));
    } catch (const std::exception &e) {
        return Status::internal(e.what());
    }
}

Result<std::vector<uint8_t>>
Store::get(const std::string &name)
{
    if (!rep_)
        return movedFromStore();
    if (!rep_->bundle.find(name))
        return Status::notFound(
            formatMessage("no object named '%s'", name.c_str()));
    // Read through the shared memo: repeated gets cost one decode
    // pass and copy only the requested object's bytes.
    Result<std::shared_ptr<const Retrieval>> shared = retrieveShared();
    if (!shared.ok())
        return shared.status();
    return objectFrom(**shared, name);
}

Result<size_t>
Store::minExactCoverage(size_t lo, size_t hi)
{
    if (!rep_)
        return movedFromStore();
    if (lo == 0 || hi < lo)
        return Status::invalidArgument(formatMessage(
            "coverage range [%zu, %zu] is empty or starts at 0", lo,
            hi));
    if (hi > rep_->channel.maxCoverage())
        return Status::invalidArgument(formatMessage(
            "coverage %zu exceeds the synthesized pool depth %zu", hi,
            rep_->channel.maxCoverage()));
    Status status = rep_->ensureSynthesized();
    if (!status.ok())
        return status;
    try {
        std::optional<size_t> min_cov =
            rep_->sim->minCoverageForExact(lo, hi);
        if (!min_cov)
            return Status::unavailable(formatMessage(
                "no coverage in [%zu, %zu] decodes exactly", lo, hi));
        return *min_cov;
    } catch (const std::exception &e) {
        return Status::internal(e.what());
    }
}

Result<HealthReport>
Store::health()
{
    if (!rep_)
        return movedFromStore();
    Status status = rep_->ensureSynthesized();
    if (!status.ok())
        return status;
    try {
        return rep_->sim->probeHealth();
    } catch (const std::exception &e) {
        return Status::internal(e.what());
    }
}

Result<size_t>
Store::age(size_t epochs)
{
    if (!rep_)
        return movedFromStore();
    if (rep_->readOnly)
        return Status::failedPrecondition(
            "the store was opened read-only; age() is not available");
    if (!rep_->channel.hasAging())
        return Status::failedPrecondition(
            "the channel has no aging profile; set "
            "ChannelOptions::aging before calling age()");
    Status status = rep_->ensureSynthesized();
    if (!status.ok())
        return status;
    try {
        size_t lost = rep_->sim->age(epochs);
        rep_->lastRetrieval.reset();
        return lost;
    } catch (const std::exception &e) {
        return Status::internal(e.what());
    }
}

Result<ScrubReport>
Store::scrub(const ScrubOptions &options)
{
    if (!rep_)
        return movedFromStore();
    if (rep_->readOnly)
        return Status::failedPrecondition(
            "the store was opened read-only; scrub() is not "
            "available");
    if (const char *err = options.check())
        return Status::invalidArgument(err);
    Status status = rep_->ensureSynthesized();
    if (!status.ok())
        return status;
    try {
        ScrubReport report = rep_->sim->scrub(options);
        if (report.repaired > 0)
            rep_->lastRetrieval.reset();
        if (!report.repairable && report.lowMargin > 0)
            return Status::unavailable(formatMessage(
                "%zu clusters need repair but %zu codewords failed at "
                "the current read depth, so the recovered data cannot "
                "be trusted for rewriting; retry after re-synthesis or "
                "at deeper coverage",
                report.lowMargin, report.failedCodewords));
        return report;
    } catch (const std::exception &e) {
        return Status::internal(e.what());
    }
}

Result<EncodedArtifact>
Store::encode() const
{
    if (!rep_)
        return movedFromStore();
    Result<StorageConfig> cfg = rep_->resolveConfig();
    if (!cfg.ok())
        return cfg.status();
    const LayoutScheme scheme = rep_->options.layout();
    try {
        UnitEncoder encoder(*cfg, scheme);
        EncodedUnit unit = encoder.encode(rep_->bundle);
        EncodedArtifact artifact;
        artifact.header = unitHeader(*cfg, scheme);
        artifact.strands.reserve(unit.strands.size());
        for (const auto &strand : unit.strands)
            artifact.strands.push_back(strandToString(strand));
        artifact.payloadBits = unit.payloadBits;
        artifact.config = *cfg;
        artifact.scheme = scheme;
        return artifact;
    } catch (const std::exception &e) {
        return Status::internal(e.what());
    }
}

Future<Result<TrialSeries>>
Store::submit(const TrialJob &job)
{
    if (!rep_)
        return failedTrials(movedFromStore());
    if (job.scrubEachEpoch) {
        if (const char *err = job.scrub.check())
            return failedTrials(Status::invalidArgument(err));
    }
    if (job.useClusterer && !rep_->channel.hasCluster())
        return failedTrials(Status::failedPrecondition(
            "TrialJob.useClusterer needs ClusterOptions on the "
            "store's channel"));
    if (job.agingEpochs > 0) {
        // The aging loop owns a trial-local fixed-depth pool; the
        // per-trial gamma/clusterer machinery does not compose with
        // epoch-wise decay (and has no pool for scrub to rewrite).
        if (job.useClusterer || rep_->channel.hasGamma())
            return failedTrials(Status::failedPrecondition(
                "TrialJob.agingEpochs needs fixed coverage without "
                "the clusterer (gamma coverage and useClusterer do "
                "not compose with the aging loop)"));
        if (!rep_->channel.hasAging())
            return failedTrials(Status::failedPrecondition(
                "TrialJob.agingEpochs needs an aging profile on the "
                "store's channel (ChannelOptions::aging)"));
    }
    // Encoding happens at submit(), so the deferred batch only ever
    // touches the simulator through const trial paths.
    Status status = rep_->ensurePrepared();
    if (!status.ok())
        return failedTrials(std::move(status));

    // The shared_ptr keeps this simulator snapshot alive until the
    // batch runs, even if a later put()+retrieve rebuilds the store's
    // unit or the Store is gone. The job and channel settings are
    // copied for the same reason.
    std::shared_ptr<const StorageSimulator> sim = rep_->sim;
    std::shared_ptr<const ClusterParams> cluster;
    if (job.useClusterer)
        cluster = std::make_shared<const ClusterParams>(
            rep_->channel.clusterParams());
    return Future<Result<TrialSeries>>(
        [sim, cluster, job, coverage = rep_->channel.coverageModel(),
         fixed_coverage =
             rep_->channel.fixedCoverage()]() -> Result<TrialSeries> {
            try {
                const std::vector<uint64_t> &seeds = job.trialSeeds;
                TrialSeries series;
                series.trials.resize(seeds.size());
                // Per-trial seeds were pre-drawn serially by the
                // caller and every trial writes its own slot, so the
                // series is bit-identical for every thread count and
                // steal schedule (the Scenario Lab contract).
                parallelFor(seeds.size(), job.threads, [&](size_t t) {
                    TrialResult &rec = series.trials[t];
                    if (job.agingEpochs > 0) {
                        AgingTrialOutcome outcome = sim->runAgingTrial(
                            fixed_coverage, seeds[t], job.agingEpochs,
                            job.scrubEachEpoch, job.scrub);
                        rec.success = !outcome.epochSuccess.empty() &&
                            outcome.epochSuccess.back() != 0;
                        rec.epochSuccess =
                            std::move(outcome.epochSuccess);
                        rec.byteErrorRate = outcome.byteErrorRate;
                        rec.readsLost = outcome.readsLost;
                        rec.scrubRepaired = outcome.repaired;
                        return;
                    }
                    TrialOutcome outcome =
                        sim->runTrial(coverage, seeds[t],
                                      cluster.get());
                    rec.success = outcome.result.exactPayload;
                    rec.byteErrorRate = outcome.byteErrorRate;
                    rec.erasedColumns =
                        outcome.result.decoded.stats.erasedColumns;
                    rec.failedCodewords =
                        outcome.result.decoded.stats.failedCodewords;
                    rec.correctedErrors =
                        outcome.result.decoded.stats.totalCorrected();
                    rec.readsGenerated = outcome.readsGenerated;
                    rec.clustersDropped = outcome.clustersDropped;
                    rec.precision = outcome.quality.precision;
                    rec.recall = outcome.quality.recall;
                });
                return series;
            } catch (const std::exception &e) {
                return Status::internal(e.what());
            }
        });
}

const StoreOptions &
Store::options() const
{
    static const StoreOptions kDefaults;
    return rep_ ? rep_->options : kDefaults;
}

StorageConfig
Store::unitConfig() const
{
    if (!rep_)
        return options().config();
    Result<StorageConfig> cfg = rep_->resolveConfig();
    return cfg.ok() ? *cfg : rep_->options.config();
}

size_t
Store::capacityBytes() const
{
    return rep_ ? unitConfig().capacityBytes() : 0;
}

size_t
Store::strandCount() const
{
    return rep_ && rep_->prepared && !rep_->dirty
        ? rep_->sim->unit().strands.size()
        : 0;
}

} // namespace api
} // namespace dnastore
