/**
 * @file
 * `dnastore::api::Store` — the stable public façade over the storage
 * pipeline.
 *
 * A Store is one simulated DNA storage unit: named objects go in with
 * put(), the unit is synthesized (encode + channel read pools) on
 * demand, and objects come back out of get() through the full noisy
 * read path — channel, consensus, Reed-Solomon — configured by the
 * builder-validated StoreOptions/ChannelOptions. No call on this
 * surface throws: every fallible operation returns Status or
 * Result<T> (api/status.hh).
 *
 * Batched asynchronous work goes through submit(), which returns a
 * Future backed by one dispatcher thread per job. EncodeJob and
 * DecodeJob run serially on that thread; a TrialJob additionally
 * fans its trial batch out over the process-wide work-stealing
 * ThreadPool (TrialJob::threads wide) with the Scenario Lab's
 * determinism contract: the series is bit-identical for every
 * thread count, because all per-trial randomness derives from
 * pre-drawn seeds and results land in per-trial slots aggregated
 * serially.
 *
 *  - EncodeJob:  snapshot the store's objects and produce the
 *                synthesizable unit text (header + one ACGT strand
 *                per line, the CLI's `encode` format).
 *  - DecodeJob:  parse unit text (self-describing header) and decode
 *                it back into named objects.
 *  - TrialJob:   run N Monte-Carlo channel trials (one per pre-drawn
 *                seed), the Scenario Lab's unit of work.
 *
 * Threading contract: submitted job bodies hold their own snapshots
 * (a shared reference to the simulator they were submitted against,
 * copies of the objects/params they need), so in-flight jobs run
 * safely alongside later put()/retrieve calls on the owning thread —
 * a rebuild just swaps in a new simulator while the job finishes on
 * the old one. The Store's own methods are not internally
 * synchronized: call them from one thread at a time.
 */

#ifndef DNASTORE_API_STORE_HH
#define DNASTORE_API_STORE_HH

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "api/health.hh"
#include "api/options.hh"
#include "api/pool_file.hh"
#include "api/status.hh"
#include "pipeline/bundle.hh"
#include "pipeline/config.hh"

namespace dnastore {
namespace api {

/** Library version (also `dnastore --version`). */
const char *version();

/** One stored object's directory entry. */
struct ObjectInfo
{
    std::string name;
    size_t bytes = 0;
};

/**
 * Everything one retrieval pass produced. A retrieval that loses
 * data still *returns* (exact=false, possibly decoded=false) so
 * callers can study graceful degradation; only get() treats loss as
 * an error.
 */
struct Retrieval
{
    /** Reads per cluster this pass used (gamma mean when gamma). */
    size_t coverage = 0;

    /** Recovered stream matches the stored bits exactly. */
    bool exact = false;

    /** Directory parsed and objects split (may still be inexact). */
    bool decoded = false;

    /** Recovered objects (empty when !decoded). */
    FileBundle objects;

    size_t correctedErrors = 0;
    size_t erasedColumns = 0;
    size_t failedCodewords = 0;
    size_t indexFaults = 0;

    /** Errors corrected per codeword (reliability-skew analysis). */
    std::vector<size_t> errorsPerCodeword;

    /** Real-clusterer passes only. */
    bool clustered = false;
    size_t clustersFound = 0;
    double precision = 0.0;
    double recall = 0.0;
};

/**
 * One object out of a retrieval pass: its bytes, or DataLoss when the
 * pass did not decode, decoded inexactly, or lost the object from the
 * recovered directory. The one decision ladder behind Store::get and
 * the daemon's snapshot reads, so both return the same Status for the
 * same pass.
 */
Result<std::vector<uint8_t>> objectFrom(const Retrieval &retrieval,
                                        const std::string &name);

/** Synthesizable unit text: the EncodeJob artifact. */
struct EncodedArtifact
{
    std::string header;                //!< "#dnastore m=... scheme=..."
    std::vector<std::string> strands;  //!< One ACGT line per molecule.
    size_t payloadBits = 0;
    StorageConfig config;
    LayoutScheme scheme = LayoutScheme::Gini;

    /** Header + strands, newline-terminated (the `encode` file). */
    std::string text() const;
};

/** Decoded unit text: the DecodeJob artifact. */
struct DecodedObjects
{
    std::vector<NamedFile> files;
    bool exact = false;
    size_t correctedErrors = 0;
    size_t erasedColumns = 0;
    size_t failedCodewords = 0;
};

/** One Monte-Carlo trial's outcome (TrialJob artifact entry). */
struct TrialResult
{
    bool success = false;
    double byteErrorRate = 0.0;
    size_t erasedColumns = 0;
    size_t failedCodewords = 0;
    size_t correctedErrors = 0;
    size_t readsGenerated = 0;
    size_t clustersDropped = 0;
    double precision = 0.0; //!< Clustered trials only.
    double recall = 0.0;    //!< Clustered trials only.

    // Aging trials only (TrialJob::agingEpochs > 0); success and
    // byteErrorRate then describe the FINAL epoch.
    std::vector<uint8_t> epochSuccess; //!< Decode success per epoch.
    size_t readsLost = 0;              //!< Reads lost to aging.
    size_t scrubRepaired = 0;          //!< Clusters scrub rewrote.
};

/** TrialJob artifact: per-trial results, in trial order. */
struct TrialSeries
{
    std::vector<TrialResult> trials;
};

/** Encode the store's current objects into unit text. */
struct EncodeJob
{
};

/** Decode unit text (produced by EncodeJob / `dnastore encode`). */
struct DecodeJob
{
    std::string text;
};

/**
 * Run one Monte-Carlo channel trial per seed. Seeds are pre-drawn by
 * the caller (serially, from its own stream) so the fan-out schedule
 * can never leak into the results — the Scenario Lab contract.
 */
struct TrialJob
{
    std::vector<uint64_t> trialSeeds;

    /** Fan-out width (1 = serial, 0 = all hardware threads). */
    size_t threads = 1;

    /** Group reads with the store's ClusterOptions per trial. */
    bool useClusterer = false;

    /**
     * When > 0, each trial runs the aging loop instead of a single
     * decode: synthesize a trial-local pool, then per epoch age it
     * one step, optionally scrub it, and decode — TrialResult's
     * epochSuccess records the curve. Needs a channel with an aging
     * profile and fixed coverage; the clusterer and gamma coverage
     * are rejected (FailedPrecondition).
     */
    size_t agingEpochs = 0;

    /** Scrub after each epoch's decay (the closed loop under test). */
    bool scrubEachEpoch = false;

    /** Per-epoch scrub policy (checked when scrubEachEpoch is set). */
    ScrubOptions scrub;
};

/**
 * Scrub the store's pool asynchronously: the probe decode, policy
 * selection, and any rewrites run on the job's dispatcher thread
 * against the store's own pool (this job mutates the store — the
 * retrieveAll() memo is invalidated when repairs land). Do not run
 * pool-backed retrievals on the owning thread while a ScrubJob is in
 * flight; queue them after Future::get().
 */
struct ScrubJob
{
    ScrubOptions options;
};

/** How openFile() treats the opened store. */
enum class OpenMode
{
    /** Mutable: put() works, and the unit can be re-synthesized. */
    ReadWrite,

    /**
     * Immutable view of the file's contents: put() is
     * FailedPrecondition. Opening never writes, so any number of
     * processes can serve retrievals from one pool file at once.
     */
    ReadOnly,
};

/**
 * Runtime knobs of openFile(). These are deliberately NOT part of the
 * durable format — they describe the opening process, not the data —
 * so the same file can open serial in a test and wide in a daemon.
 */
struct OpenOptions
{
    OpenMode mode = OpenMode::ReadWrite;

    /** Worker threads for decode/cluster loops (1 serial, 0 = all). */
    size_t threads = 1;

    /** Hold restored/regenerated read pools 2-bit packed. */
    bool packedReadPools = false;
};

/**
 * Handle to an asynchronously running job. get() blocks until the
 * job finishes and yields its Result exactly once; calling get() on
 * a consumed or default-constructed Future yields a
 * FailedPrecondition Result instead of throwing (the boundary's
 * no-throw rule applies to Futures too). Destroying a Future waits
 * for the job (no detached work outlives the caller).
 */
template <typename T>
class Future
{
  public:
    Future() = default;
    explicit Future(std::future<T> fut) : fut_(std::move(fut)) {}

    bool valid() const { return fut_.valid(); }

    void
    wait() const
    {
        if (fut_.valid())
            fut_.wait();
    }

    T
    get()
    {
        if (!fut_.valid())
            return T(Status::failedPrecondition(
                "Future already consumed (or never bound to a job)"));
        return fut_.get();
    }

  private:
    std::future<T> fut_;
};

/** The public storage façade. One Store = one encoding unit. */
class Store
{
  public:
    /**
     * Open a store. Both option sets are builder-validated here:
     * an invalid parameter yields the documented InvalidArgument
     * status instead of a constructed object, so everything behind
     * the façade can assume validated configuration.
     */
    static Result<Store> open(const StoreOptions &options,
                              const ChannelOptions &channel
                              = ChannelOptions());

    /**
     * Open a store from a durable `.dnapool` file (Store::save's
     * output). The saved geometry, layout, unit seed, manifest, and
     * — when present — read pools are restored; the reopened store's
     * get()/retrieveAll() answers are byte-identical to the saved
     * store's. The manifest is re-encoded on open and checked against
     * the saved unit strand for strand, so a file whose sections
     * disagree (all checksums intact) is still caught: DataLoss.
     *
     * Errors: NotFound (no such file), DataLoss (corruption — the
     * message names the failing section), FailedPrecondition (a
     * format version this build does not read, a channel needing
     * more coverage than the saved pools hold, or a structurally
     * foreign file), InvalidArgument (bad @p channel).
     */
    static Result<Store> openFile(const std::string &path,
                                  const ChannelOptions &channel
                                  = ChannelOptions(),
                                  const OpenOptions &options
                                  = OpenOptions());

    /**
     * Open a store from already-parsed pool file contents — exactly
     * what openFile() does after readPoolFile(), exposed so a caller
     * that already parsed the file (e.g. to adopt its saved pool
     * depth as a channel default) does not pay a second read+parse
     * of the whole store. @p origin names the source in error
     * messages. Same validation, integrity cross-check, and errors
     * as openFile(), minus NotFound.
     */
    static Result<Store> openContents(PoolFileContents contents,
                                      const ChannelOptions &channel
                                      = ChannelOptions(),
                                      const OpenOptions &options
                                      = OpenOptions(),
                                      const std::string &origin
                                      = "pool contents");

    /**
     * Save the store to a durable `.dnapool` file. With @p with_pools
     * the unit is synthesized first (if needed) and the read pools
     * are stored alongside it; otherwise only the encoded unit and
     * manifest are written and a later openFile() regenerates pools
     * deterministically from the saved unit seed. Unavailable on I/O
     * failure, CapacityExceeded/Internal when the unit cannot build.
     */
    Status save(const std::string &path, bool with_pools = true);

    /** True when openFile() opened this store OpenMode::ReadOnly. */
    bool readOnly() const;

    Store(Store &&) noexcept;
    Store &operator=(Store &&) noexcept;
    ~Store();

    Store(const Store &) = delete;
    Store &operator=(const Store &) = delete;

    // ------------------------------------------------------- manifest
    /**
     * Add an object. InvalidArgument for an illegal name,
     * AlreadyExists for a duplicate, CapacityExceeded when the
     * object would overflow the unit.
     */
    Status put(const std::string &name, std::vector<uint8_t> data);

    /** Directory of stored objects, in insertion order. */
    std::vector<ObjectInfo> list() const;

    bool contains(const std::string &name) const;
    size_t objectCount() const;

    /** Total payload bytes across objects (directory excluded). */
    size_t totalBytes() const;

    // ------------------------------------------------------ retrieval
    /**
     * Encode the unit and generate its channel read pools. Implicit
     * before the first retrieval (and after any put()); exposed so
     * synthesis cost can be paid — or measured — explicitly.
     * Always re-synthesizes when called directly.
     */
    Status synthesize();

    /**
     * Retrieve one object through the noisy channel. NotFound if no
     * such object, DataLoss when the channel defeated the decoder.
     */
    Result<std::vector<uint8_t>> get(const std::string &name);

    /**
     * Retrieve everything at the configured coverage model. The
     * result is deterministic while the store is clean, so it is
     * memoized: repeated calls (and the get()s built on them) cost
     * one decode pass until the next put() or synthesize().
     */
    Result<Retrieval> retrieveAll();

    /**
     * The memoized pass behind retrieveAll() and get(), shared rather
     * than copied: the pointee is immutable and stays valid after
     * later put()s or repairs, which only replace the memo. Same
     * errors as retrieveAll().
     */
    Result<std::shared_ptr<const Retrieval>> retrieveShared();

    /**
     * Retrieve everything at an explicit fixed coverage (pool
     * prefix; must not exceed the channel's maxCoverage()). Always
     * decodes — explicit-coverage sweeps bypass the memo.
     */
    Result<Retrieval> retrieveAt(size_t coverage);

    /**
     * Smallest coverage in [lo, hi] whose retrieval is exact;
     * Unavailable when none is.
     */
    Result<size_t> minExactCoverage(size_t lo, size_t hi);

    // ------------------------------------------------ durability loop
    /**
     * Measure the pool's health with one full-depth probe decode:
     * per-cluster live reads and consensus agreement, per-codeword
     * RS correction split and remaining margin. Read-only (works on
     * read-only stores); synthesizes first if needed. The report —
     * and its toJson() rendering — is byte-identical at any thread
     * count and SIMD tier.
     */
    Result<HealthReport> health();

    /**
     * Apply @p epochs of the channel's aging profile to the pool:
     * per epoch, whole reads are lost and surviving bases substitute.
     * Deterministic (epoch seeds derive from the unit seed and a
     * monotone epoch counter: age(1);age(1) decays exactly like
     * age(2)). Invalidates the retrieveAll() memo.
     *
     * @return Reads lost across the epochs.
     *
     * Errors: FailedPrecondition on a read-only store or a channel
     * with no aging profile (ChannelOptions::aging).
     */
    Result<size_t> age(size_t epochs);

    /**
     * Scrub the pool: probe-decode at full depth, select the clusters
     * @p options call low-margin, and — when every codeword decoded,
     * so the recovered data is trustworthy — rewrite each selected
     * cluster with fresh full-depth reads of its repaired strand.
     * Repairs invalidate the retrieveAll() memo.
     *
     * Errors: InvalidArgument when options.check() fails;
     * FailedPrecondition on a read-only store; Unavailable
     * when clusters need repair but some codeword failed at the
     * current depth (every column then embeds an untrusted symbol, so
     * no rewrite is safe — transient: deeper coverage can clear it).
     */
    Result<ScrubReport> scrub(const ScrubOptions &options
                              = ScrubOptions());

    // ----------------------------------------------------- async jobs
    // Every submit() on a moved-from (or torn-down) Store yields a
    // ready Unavailable Future instead of dereferencing the dead
    // handle — the one state in which the façade cannot serve at all.
    Future<Result<EncodedArtifact>> submit(const EncodeJob &job);
    Future<Result<DecodedObjects>> submit(const DecodeJob &job);
    Future<Result<TrialSeries>> submit(const TrialJob &job);
    Future<Result<ScrubReport>> submit(const ScrubJob &job);

    // ----------------------------------------------------- inspection
    const StoreOptions &options() const;

    /**
     * The unit geometry retrievals will use. Under autoGeometry the
     * preset is re-resolved against the current objects.
     */
    StorageConfig unitConfig() const;

    /** Payload capacity of the unit, in bytes (geometry-resolved). */
    size_t capacityBytes() const;

    /** Strands in the synthesized unit (0 before synthesis). */
    size_t strandCount() const;

  private:
    struct Rep;
    explicit Store(std::unique_ptr<Rep> rep);

    std::unique_ptr<Rep> rep_;
};

} // namespace api
} // namespace dnastore

#endif // DNASTORE_API_STORE_HH
