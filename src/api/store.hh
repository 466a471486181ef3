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
 * Every operation runs on the calling thread. The one deferred call
 * is submit(TrialJob): it validates the job and snapshots the
 * simulator at submit(), and the trial batch runs when the returned
 * Future is read, fanned out over the process-wide work-stealing
 * ThreadPool (TrialJob::threads wide) with the Scenario Lab's
 * determinism contract: the series is bit-identical for every
 * thread count, because all per-trial randomness derives from
 * pre-drawn seeds and results land in per-trial slots aggregated
 * serially. The daemon submits under its tenant lock and reads the
 * Future after releasing it.
 *
 * Unit text (header + one ACGT strand per line, the CLI's `encode`
 * format) comes from encode() and goes back to named objects through
 * the free function decodeUnitText().
 *
 * Threading contract: a pending Future holds its own snapshot (a
 * shared reference to the simulator it was submitted against, copies
 * of the seeds and params it needs), so it can be read after later
 * put()/retrieve calls, or after the Store is gone — a rebuild just
 * swaps in a new simulator while the Future keeps the old one. The
 * Store's own methods are not internally synchronized: call them
 * from one thread at a time.
 */

#ifndef DNASTORE_API_STORE_HH
#define DNASTORE_API_STORE_HH

#include <cstdint>
#include <functional>
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

/** Synthesizable unit text: what Store::encode() produces. */
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

/** Decoded unit text: what decodeUnitText() produces. */
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
 * Handle to a deferred job. The job runs on the thread that calls
 * get(), which yields its Result exactly once; a Future that is never
 * read never runs. get() on a consumed or default-constructed Future
 * yields a FailedPrecondition Result instead of throwing (the
 * boundary's no-throw rule applies to Futures too).
 */
template <typename T>
class Future
{
  public:
    Future() = default;
    explicit Future(std::function<T()> job) : job_(std::move(job)) {}

    bool valid() const { return static_cast<bool>(job_); }

    T
    get()
    {
        if (!job_)
            return T(Status::failedPrecondition(
                "Future already consumed (or never bound to a job)"));
        std::function<T()> job = std::move(job_);
        job_ = nullptr;
        return job();
    }

  private:
    std::function<T()> job_;
};

/**
 * Decode unit text (Store::encode() / `dnastore encode` output; the
 * header is self-describing) back into named objects on @p threads
 * decode threads (1 serial, 0 = all). FailedPrecondition for a
 * malformed header or a non-ACGT strand line, DataLoss when the unit
 * does not decode.
 */
Result<DecodedObjects> decodeUnitText(const std::string &text,
                                      size_t threads = 1);

/**
 * The public storage façade. One Store = one encoding unit.
 *
 * A moved-from Store holds nothing: every Status- or Result-returning
 * method answers Unavailable, list() is empty, contains() false,
 * readOnly() false, objectCount(), totalBytes(), capacityBytes() and
 * strandCount() 0, and options() / unitConfig() are the defaults.
 */
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

    // ------------------------------------------------------ unit text
    /**
     * Encode the current objects into synthesizable unit text.
     * Unavailable on a moved-from (or torn-down) Store, as for every
     * other Status or Result method.
     */
    Result<EncodedArtifact> encode() const;

    // ------------------------------------------------------ trial jobs
    /**
     * Check @p job and snapshot the simulator now; the batch runs at
     * Future::get(). A rejected job, or a moved-from Store
     * (Unavailable), yields a Future that returns the error.
     */
    Future<Result<TrialSeries>> submit(const TrialJob &job);

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
